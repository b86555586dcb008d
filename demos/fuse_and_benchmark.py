"""
Assembling, fusing, and timing a whole model
============================================

The full pipeline: build the nano model graph, give it deterministic
weights, write and re-read the checksummed weight file, fold every
batchnorm into its convolution, confirm the deployed model still computes
the same function, and time both forms.
"""

import os
import tempfile

import numpy as np

from mhaf import (
    assemble,
    benchmark_forward,
    count_params_flops,
    forward,
    fuse_model,
    init_weights,
    load_preset,
    load_weights,
    save_weights,
)

spec = load_preset("nano")
graph = assemble(spec)
totals = count_params_flops(graph)
print(f"nano: {len(graph.nodes)} nodes, {totals.params / 1e6:.2f}M params, "
      f"{totals.flops / 1e9:.2f} GFLOPs at {spec.input_size}x{spec.input_size}")

# deterministic init, then a round trip through the binary container
store = init_weights(graph, seed=0)
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "nano.mhwt")
    save_weights(store, path)
    store = load_weights(path)
    print(f"weight file: {os.path.getsize(path):,} bytes, "
          f"{len(store.entries)} entries, checksum verified on load")

# fold batchnorm everywhere
outcome = fuse_model(graph, store)
print(f"\nfusion removed {outcome.bn_nodes_removed} standalone BN nodes and "
      f"shrank the store from {outcome.params_before:,} to "
      f"{outcome.params_after:,} floats")

# the deployed model is the same function, to float precision
rng = np.random.default_rng(0)
x = rng.standard_normal((1, 3, 320, 320)).astype(np.float32)
gap = max(
    float(np.max(np.abs(a - b)))
    for a, b in zip(
        forward(graph, store, x).values(),
        forward(outcome.graph, outcome.store, x).values(),
    )
)
print(f"max forward gap at 320x320: {gap:.2e}")

# and it is faster, because every BN multiply-add is gone and every
# mixer runs one kernel instead of four
training = benchmark_forward(graph, store, x, "training", iterations=9)
deployed = benchmark_forward(outcome.graph, outcome.store, x, "deployed", iterations=9)
print(f"\ntraining median {training.median_seconds * 1e3:6.1f} ms")
print(f"deployed median {deployed.median_seconds * 1e3:6.1f} ms")
print(f"speedup {training.median_seconds / deployed.median_seconds:.2f}x")
