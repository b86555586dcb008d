"""
Inside the multi-stream aggregation block
=========================================

The model's main feature extractor splits its hidden channels into parallel
streams, runs a few blocks per stream with cascade connections between
neighbouring streams, keeps every intermediate output, and concatenates the
lot before a final 1x1.  Each block's spatial mixer is itself a multi-branch
depthwise unit, so the whole block re-parameterizes for deployment.

The module's weights are one {slot path: unit} dict keyed by its layout,
and deploying it folds every slot through the same ``fold_slot`` that
whole-model fusion runs.
"""

import numpy as np

from mhaf.blocks import (
    RepHMSSpec,
    fold_slot,
    random_rephms,
    rephms_concat_width,
    rephms_forward,
)

rng = np.random.default_rng(2)

# three streams, two blocks per stream, 7x7 mixers
spec = RepHMSSpec(in_ch=32, out_ch=48, streams=3, blocks_per_stream=2, kernel=7)

# the concat gathers the untouched first chunk plus every block output:
# stream_width * (1 + (streams - 1) * blocks)
print(f"hidden width      {spec.hidden}")
print(f"stream width      {spec.stream_width}")
print(f"retained tensors  1 + {(spec.streams - 1) * spec.blocks_per_stream}")
print(f"concat width      {rephms_concat_width(spec)}")

units = random_rephms(spec, rng)
print(f"\nslots             {len(units)}: {', '.join(list(units)[:5])}, ...")
x = rng.standard_normal((1, 32, 24, 24)).astype(np.float32)
y = rephms_forward(x, spec, units)
print(f"forward: {tuple(x.shape)} -> {tuple(y.shape)}")

# deployment folds every BN and collapses every mixer branch stack, one
# slot at a time; every deployed slot is a plain BN-free conv unit
deployed = {path: fold_slot(unit) for path, unit in units.items()}
y2 = rephms_forward(x, spec, deployed)
print(f"deployed forward gap: {np.max(np.abs(y - y2)):.2e}")

# the cascade matters: the third stream's input adds the second stream's
# final block output, so zeroing that block's projection perturbs
# everything downstream of it
units[f"s2.b{spec.blocks_per_stream}.proj"].kernel.weights[:] = 0.0
y3 = rephms_forward(x, spec, units)
print(f"after zeroing the cascaded block: output changed = "
      f"{not np.allclose(y, y3)}")
