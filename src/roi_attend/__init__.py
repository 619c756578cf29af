"""Attention-based region-of-interest detection for speech emotion recognition.

Pipeline: WAV -> MFCC features -> LSTM encoder (uni- or bidirectional) ->
optional attention block -> LSTM decoder -> 6-way softmax. The attention
weights over encoder frames are reused after training to locate the regions
of a clip the classifier relied on.
"""

from .dataset import (
    EmotionLabel,
    Manifest,
    SyntheticSpec,
    UtteranceMeta,
    build_manifest,
    generate_synthetic,
    loso_folds,
    parse_filename,
    scan_corpus,
    write_synthetic_corpus,
)
from .dsp import (
    AudioClip,
    FeatureSequence,
    FrameConfig,
    extract_features,
    load_feature_cache,
    mel_filterbank,
    mfcc,
    pad_to_length,
    read_wav,
    read_wav_file,
    save_feature_cache,
    write_wav,
    write_wav_file,
)
from .evaluation import (
    AggregateReport,
    ConfusionMatrix,
    EvalItem,
    FoldResult,
    aggregate,
    evaluate_fold,
    predict_batch,
)
from .model import (
    ModelConfig,
    ModelParams,
    Variant,
    init_params,
)
from .numerics import GradCheckReport, SeededRng, grad_check, softmax
from .roi import (
    AttentionMap,
    RoiRegion,
    RoiResult,
    detect_roi,
    expand_to_samples,
    extract_attention,
    render_svg,
)
from .training import (
    Checkpoint,
    TrainConfig,
    cross_entropy,
    gradient_check_suite,
    load_checkpoint,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"
