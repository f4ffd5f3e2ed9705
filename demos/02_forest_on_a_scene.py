"""
Training a forest on a synthetic scene
======================================

The full in-memory pipeline on one generated scene: extract labeled
pixels, balance the classes, split 80/20, standardize, train, and
compare the held-out accuracy with the scene's known Bayes optimum.
"""

import numpy as np

from ccfmap import (
    SampleSet,
    SplitSpec,
    SyntheticSceneSpec,
    TrainConfig,
    balance_classes,
    bayes_accuracy_estimate,
    extract_samples,
    fit_scaler,
    generate_scene,
    predict_class_batch,
    predict_raster,
    standardize,
    stratified_split,
    train_forest,
)

spec = SyntheticSceneSpec(preset="ring", width=96, height=96,
                          class_separation=4.0, seed=7)
raster, mask = generate_scene(spec)
print(f"scene: {raster.height}x{raster.width}, {raster.bands} bands")
print(f"class 1 covers {mask.mean():.1%} of the pixels")

# pixels -> samples; balance so both classes carry equal weight
samples = extract_samples(raster, mask)
balanced = balance_classes(samples, np.random.default_rng(7))
print(f"{len(samples)} labeled pixels, {len(balanced)} after balancing")

train, test = stratified_split(balanced, SplitSpec(train_fraction=0.8, seed=7))
scaler = fit_scaler(train)
# adopt=True takes over standardize's column-major table, as `ccfmap train`
# does, so the trees grow from a view of it rather than a copy
train_std = SampleSet(standardize(train.features, scaler),
                      train.labels, train.class_names, adopt=True)

model = train_forest(train_std, TrainConfig(n_trees=10, seed=7), scaler=scaler)
sizes = [t.n_nodes for t in model.trees]
print(f"trained {len(model.trees)} trees, node counts {sizes}")

pred = predict_class_batch(model, test.features)
acc = (pred == test.labels).mean()
print(f"held-out accuracy: {acc:.3f}  (Bayes optimum "
      f"{bayes_accuracy_estimate(spec):.3f})")

# paint the whole scene and count disagreements with the truth mask
full_mask, full_prob = predict_raster(model, raster)
disagree = (full_mask != mask).mean()
print(f"full-scene disagreement with truth: {disagree:.1%}")
print(f"probability map range: [{full_prob.min():.3f}, {full_prob.max():.3f}]")
