"""Oracle test for training on noisy annotations, the paper's regime: a
map trained on a scene whose labels are flipped at random, a fraction rho
of them, is scored against a second scene's clean truth.

Symmetric flips leave the clean scene's Bayes rule unchanged. So the map
must beat its own annotations (accuracy above 1 - rho) and must not beat
the Bayes estimate by more than perfbench's tolerance. Blobs at
separation 3.5 (Bayes 0.960) leave room on both sides; on this setting the
library scored 0.947, 0.913 and 0.834 at rho 0.1, 0.2 and 0.3. Each
training set holds about 52,000 rows, more than forest._BLOCK, so the
roots take the large-node path, where the split search meets the noisy
labels.
"""

import dataclasses

import numpy as np
import pytest

from ccfmap import forest
from ccfmap.cca import standardize
from ccfmap.forest import TrainConfig, predict_raster, train_forest
from ccfmap.metrics import evaluate
from ccfmap.pipeline import SampleSet, SplitSpec, balance_classes, extract_samples, fit_scaler, stratified_split
from ccfmap.raster_io import SyntheticSceneSpec, bayes_accuracy_estimate, generate_scene

BAYES_TOLERANCE = 0.03  # perfbench's bound on |accuracy - Bayes estimate|


@pytest.mark.parametrize("rho", [0.1, 0.2, 0.3])
def test_map_beats_its_noisy_annotations(rho):
    seed = 5
    spec = SyntheticSceneSpec(width=256, height=256, class_separation=3.5, seed=seed)
    raster, mask = generate_scene(spec)
    noisy = mask.ravel().copy()  # 0/1: the scene has no unlabeled border
    flip = np.random.default_rng(seed).choice(noisy.size, round(rho * noisy.size), replace=False)
    noisy[flip] = 1 - noisy[flip]
    samples = extract_samples(raster, noisy.reshape(mask.shape))
    train, _ = stratified_split(balance_classes(samples, np.random.default_rng(seed)),
                                SplitSpec(seed=seed))
    scaler = fit_scaler(train)
    train = SampleSet(standardize(train.features, scaler), train.labels, train.class_names)
    assert len(train) > forest._BLOCK
    model = train_forest(train, TrainConfig(n_trees=10, seed=seed), scaler=scaler)

    other = dataclasses.replace(spec, seed=seed + 1000)
    raster, truth = generate_scene(other)
    accuracy = evaluate(predict_raster(model, raster)[0], truth).pixel_accuracy
    assert 1 - rho < accuracy <= bayes_accuracy_estimate(other) + BAYES_TOLERANCE, accuracy
