"""Settlement mapping on multispectral rasters with canonical correlation forests."""

__version__ = "0.1.0"

from .errors import DataError
from .cca import cca, project, standardize
from .pipeline import (
    SampleSet,
    SplitSpec,
    balance_classes,
    extract_samples,
    fit_scaler,
    stratified_split,
)
from .forest import TrainConfig, predict_class_batch, predict_raster, train_forest
from .metrics import evaluate
from .model_io import load_model
from .raster_io import (
    MultispectralRaster,
    SyntheticSceneSpec,
    bayes_accuracy_estimate,
    generate_scene,
    read_mask,
    read_raster,
    read_report,
    write_mask,
    write_raster,
)

__all__ = [
    "DataError",
    "cca",
    "project",
    "standardize",
    "SampleSet",
    "SplitSpec",
    "balance_classes",
    "extract_samples",
    "fit_scaler",
    "stratified_split",
    "TrainConfig",
    "predict_class_batch",
    "predict_raster",
    "train_forest",
    "evaluate",
    "MultispectralRaster",
    "SyntheticSceneSpec",
    "bayes_accuracy_estimate",
    "generate_scene",
    "load_model",
    "read_mask",
    "read_raster",
    "read_report",
    "write_mask",
    "write_raster",
    "__version__",
]
