"""Settlement mapping on multispectral rasters with canonical correlation forests.

The root loads a module only when a caller takes one of its names, so
`from ccfmap import generate_scene` loads raster_io and what it imports,
not the forest or the model file.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("DataError",),
    "cca": ("cca", "project", "standardize"),
    "pipeline": ("SampleSet", "SplitSpec", "balance_classes", "extract_samples",
                 "fit_scaler", "stratified_split"),
    "forest": ("TrainConfig", "predict_class_batch", "predict_raster", "train_forest"),
    "metrics": ("evaluate",),
    "model_io": ("load_model",),
    "raster_io": ("MultispectralRaster", "SyntheticSceneSpec", "bayes_accuracy_estimate",
                  "generate_scene", "read_mask", "read_raster", "read_report",
                  "write_mask", "write_raster"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


class _Root(types.ModuleType):
    """Importing a submodule binds it to its name in the package; the
    function cca keeps that name from the submodule cca."""

    def __setattr__(self, name, value):
        if not (name in _HOME and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Root
