"""Beam search with server-side cache reordering, and the int8 activation
codec on the wire.
"""

import numpy as np

from swarmpipe import ModelConfig, reference_beam
from swarmpipe.netsim import NetProfile
from swarmpipe.swarm import build_sim_swarm
from swarmpipe.wire import HiddenBlob

cfg = ModelConfig(seed=1)

# distributed beam == local beam, including under injected failures
local = reference_beam(cfg, [4, 2], 16, k=4)
swarm = build_sim_swarm(cfg, seed=0, profile=NetProfile(failure_prob=0.01))
res = swarm.client().beam_generate([4, 2], 16, k=4)
print("distributed k=4 beams match local oracle:",
      [h for h, _ in res.beams] == [h for h, _ in local],
      f"(recoveries: {res.counters.recoveries})")
for hyp, score in res.beams:
    print(f"  {score:8.2f}  ...{hyp[-6:]}")

# the codec: blockwise absmax int8, error bounded by scale, ~27% of raw size
h = np.random.default_rng(0).standard_normal((16, 64)).astype(np.float32) * 3
coded, raw = HiddenBlob.from_array(h, quantized=True), HiddenBlob.from_array(h)
err = np.abs(coded.array() - h).max()
print(f"\ncodec: {coded.nbytes()} bytes vs {raw.nbytes()} raw "
      f"({coded.nbytes() / raw.nbytes():.0%}), max error {err:.4f} "
      f"(bound {np.abs(h.reshape(-1, 64)).max(1).max() / 127:.4f})")

# quantized wire mode: same protocol, coded stage-to-stage activations;
# matched-context greedy choices agree with the exact mode almost always
exact = build_sim_swarm(cfg, seed=0).client().generate([3, 1, 4], 64)
swarm = build_sim_swarm(cfg, seed=0)
forced = swarm.client().generate([3, 1, 4], 64, quantized=True,
                                 teacher_tokens=exact.tokens[3:])
agree = sum(a == b for a, b in zip(forced.tokens[3:], exact.tokens[3:]))
print(f"quantized vs exact greedy agreement (matched context): {agree}/64")
