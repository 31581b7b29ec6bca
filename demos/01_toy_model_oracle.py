"""The deterministic toy transformer: seeded weights, KV-cached stepping,
and the single-process generation oracle that every distributed run is
checked against.
"""

import numpy as np

from swarmpipe import (ModelConfig, init_model, parameter_count,
                       reference_beam, reference_generate)
from swarmpipe.model import KVCache, block_forward_batched

cfg = ModelConfig(seed=1)
blocks, client = init_model(cfg)
print(f"model: {cfg.n_blocks} blocks, hidden {cfg.hidden_dim}, "
      f"{parameter_count(cfg):,} parameters")

# weights are a pure function of (seed, block, tensor role): rebuild and compare
blocks2, _ = init_model(cfg)
same = all(np.array_equal(a, b) for p, q in zip(blocks, blocks2)
           for a, b in zip(p.arrays(), q.arrays()))
print("re-initialized weights bit-identical:", same)

# KV-cache equivalence: stepping one token at a time equals one batched pass
rng = np.random.default_rng(0)
x = rng.standard_normal((10, cfg.hidden_dim)).astype(np.float32)
full, _, _ = block_forward_batched(blocks[0], x[None],
                                   np.zeros((1, 0, 4, 16), np.float32),
                                   np.zeros((1, 0, 4, 16), np.float32))
cache = KVCache.empty(cfg)
stepped = []
for i in range(10):
    y, k_new, v_new = block_forward_batched(blocks[0], x[None, i:i + 1],
                                            cache.keys, cache.values)
    cache.append(k_new, v_new)
    stepped.append(y[0])
err = np.abs(np.concatenate(stepped) - full[0]).max()
print(f"stepped vs batched max error: {err:.2e}")

# the oracles
print("greedy :", reference_generate(cfg, [5, 6, 7], 12))
print("sampled:", reference_generate(cfg, [5, 6, 7], 12, mode="sample", sample_seed=7))
for hyp, score in reference_beam(cfg, [5, 6, 7], 8, k=3):
    print(f"beam   : {hyp}  (logprob {score:.2f})")
