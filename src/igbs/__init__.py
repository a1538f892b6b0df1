"""Information-gain band selection and classification harness for
hyperspectral images."""

from .classify import (
    EvalReport,
    SplitPlan,
    SvmModel,
    cohen_kappa,
    evaluate,
    knn_predict,
    overall_accuracy,
    predict,
    stratified_split,
    train_svm,
)
from .datamodel import (
    DiscreteSeries,
    GroundTruth,
    HyperCube,
    QuantizedCube,
    quantize_cube,
)
from .errors import ConfigError, DataError, IgbsError, MethodError
from .infotheory import (
    entropy,
    interaction_information,
    mutual_information,
)
from .pipeline import run_compare
from .raster import export_map, load_cube, load_gt, save_cube, save_gt
from .report import RunConfig
from .selection import (
    METHODS,
    SelectionResult,
    build_estimated_gt,
    greedy_select,
    relevance_scores,
)
from .synth import SynthSpec, generate_cube

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DataError",
    "DiscreteSeries",
    "EvalReport",
    "GroundTruth",
    "HyperCube",
    "IgbsError",
    "METHODS",
    "MethodError",
    "QuantizedCube",
    "RunConfig",
    "SelectionResult",
    "SplitPlan",
    "SvmModel",
    "SynthSpec",
    "build_estimated_gt",
    "cohen_kappa",
    "entropy",
    "evaluate",
    "export_map",
    "generate_cube",
    "greedy_select",
    "interaction_information",
    "knn_predict",
    "load_cube",
    "load_gt",
    "mutual_information",
    "overall_accuracy",
    "predict",
    "quantize_cube",
    "relevance_scores",
    "run_compare",
    "save_cube",
    "save_gt",
    "stratified_split",
    "train_svm",
]
