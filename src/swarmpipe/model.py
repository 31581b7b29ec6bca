"""Deterministic toy transformer: the exactly-checkable compute payload.

The model is a standard pre-norm decoder block stack (x + Attn(LN(x)),
then + MLP(LN(x')), GELU activation, no positional encoding, tied
unembedding). Weights are derived from splitmix64 streams keyed by
(seed, block, tensor role), so two processes that agree on a ModelConfig
agree bit-for-bit on every weight without exchanging them.

Within one process a config's weights are built once: every swarm, server,
client and oracle of that config shares one weight set, whose arrays are
read-only (``writeable = False``), so "treated as immutable" is enforced.
The memo keeps the ``WEIGHT_MEMO_MAX`` most recently used configs, because
a long-lived process (a test run, a benchmark sweeping seeds) meets many
configs, and each holds its weights for as long as it stays in the memo.

Forward compute is float32 end to end. Backward recomputes intermediates
in float64 from the recorded inputs and returns float32 input gradients;
block parameters are never touched by any code path here.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConfigurationError, ProtocolError

WEIGHT_MEMO_MAX = 8   # configs kept built in each of the two weight memos (blocks, embedding)

_LN_EPS = 1e-5
_GELU_C = 0.7978845608028654  # sqrt(2/pi)

# splitmix64 constants
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# tensor-role ids for weight stream keying
_ROLES = {
    "wq": 1, "wk": 2, "wv": 3, "wo": 4,
    "w1": 5, "w2": 6,
    "ln1_g": 7, "ln1_b": 8, "ln2_g": 9, "ln2_b": 10,
    "embedding": 11,
}


def _splitmix64(seed: int, n: int) -> np.ndarray:
    """First n outputs of the splitmix64 stream started at ``seed``."""
    with np.errstate(over="ignore"):
        z = (np.arange(1, n + 1, dtype=np.uint64) * _GOLDEN) + np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


def _stream_seed(seed: int, block: int, role: str) -> int:
    # one mixing round keeps per-tensor streams disjoint for all practical keys
    key = (seed & 0xFFFFFFFFFFFFFFFF) ^ ((block + 1) * 0x9E3779B97F4A7C15) ^ (_ROLES[role] * 0xC2B2AE3D27D4EB4F)
    return int(_splitmix64(key, 1)[0])


def _uniform_weights(seed: int, block: int, role: str, shape: tuple[int, ...], scale: float) -> np.ndarray:
    """Uniform [-scale, scale] float32 tensor from the (seed, block, role) stream."""
    n = int(np.prod(shape))
    bits = _splitmix64(_stream_seed(seed, block, role), n)
    u = (bits >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))  # [0, 1)
    return ((2.0 * u - 1.0) * scale).astype(np.float32).reshape(shape)


@dataclass(frozen=True)
class ModelConfig:
    """Dimensions and seed of the toy transformer."""

    n_blocks: int = 8
    hidden_dim: int = 64
    n_heads: int = 4
    vocab_size: int = 256
    max_seq_len: int = 2048
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_blocks < 1:
            raise ConfigurationError("n_blocks must be >= 1")
        if self.vocab_size < 2:
            raise ConfigurationError("vocab_size must be >= 2")
        if self.hidden_dim % self.n_heads != 0:
            raise ConfigurationError("hidden_dim must be divisible by n_heads")
        if self.max_seq_len < 1:
            raise ConfigurationError("max_seq_len must be >= 1")

    @property
    def head_dim(self) -> int:
        return self.hidden_dim // self.n_heads


@dataclass
class BlockParams:
    """Weights of one transformer block, shared by every user of its
    config and read-only (see the module docstring).

    The query, key and value projections are stored side by side in one
    [d, 3d] matrix so that a single matmul computes all three; ``wq``,
    ``wk`` and ``wv`` are column views of it, not copies.
    """

    wqkv: np.ndarray
    wo: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    ln1_g: np.ndarray
    ln1_b: np.ndarray
    ln2_g: np.ndarray
    ln2_b: np.ndarray

    @property
    def wq(self) -> np.ndarray:
        return self.wqkv[:, :self.wqkv.shape[0]]

    @property
    def wk(self) -> np.ndarray:
        d = self.wqkv.shape[0]
        return self.wqkv[:, d:2 * d]

    @property
    def wv(self) -> np.ndarray:
        return self.wqkv[:, 2 * self.wqkv.shape[0]:]

    def arrays(self) -> list[np.ndarray]:
        return [self.wq, self.wk, self.wv, self.wo, self.w1, self.w2,
                self.ln1_g, self.ln1_b, self.ln2_g, self.ln2_b]

    def n_params(self) -> int:
        return sum(a.size for a in self.arrays())


@dataclass
class ClientParams:
    """Client-held parameters: the token embedding (tied unembedding),
    shared and read-only like the blocks."""

    embedding: np.ndarray

    def n_params(self) -> int:
        return self.embedding.size


@dataclass
class KVCache:
    """Per-block attention history: keys/values shaped [width, t, heads, head_dim].

    width > 1 only for beam sessions; the width-1 slice is the plain
    single-sequence cache.
    """

    keys: np.ndarray
    values: np.ndarray

    @classmethod
    def empty(cls, config: ModelConfig, width: int = 1) -> "KVCache":
        shape = (width, 0, config.n_heads, config.head_dim)
        return cls(np.zeros(shape, np.float32), np.zeros(shape, np.float32))

    @property
    def length(self) -> int:
        return self.keys.shape[1]

    @property
    def width(self) -> int:
        return self.keys.shape[0]

    def append(self, k_new: np.ndarray, v_new: np.ndarray) -> None:
        if k_new.shape != v_new.shape:
            raise ProtocolError("key/value delta shapes differ")
        self.keys = np.concatenate([self.keys, k_new], axis=1)
        self.values = np.concatenate([self.values, v_new], axis=1)

    def gather(self, indices_zero_based: list[int]) -> None:
        """Reorder/clone beam slots: new slot i <- old slot indices[i]."""
        idx = np.asarray(indices_zero_based, dtype=np.intp)
        if idx.size and (idx.min() < 0 or idx.max() >= self.width):
            raise ProtocolError("reorder index out of range")
        self.keys = self.keys[idx].copy()
        self.values = self.values[idx].copy()


def init_model(config: ModelConfig) -> tuple[list[BlockParams], ClientParams]:
    """All weights of ``config``: ``init_blocks`` and ``init_client_params``.

    Built once per process per config (bounded by ``WEIGHT_MEMO_MAX``) and
    read-only; each call returns a fresh list over the shared blocks."""
    return init_blocks(config), init_client_params(config)


def init_blocks(config: ModelConfig) -> list[BlockParams]:
    """The servers' share of ``init_model``: the blocks alone, shared and
    read-only, in a fresh list."""
    return list(_shared_blocks(config))


def init_client_params(config: ModelConfig) -> ClientParams:
    """The client's share of ``init_model``: the embedding alone, shared and
    read-only, kept apart from the blocks so a process that only makes a
    client computes only the embedding."""
    return _shared_client_params(config)


def _read_only(params: BlockParams | ClientParams) -> None:
    for a in vars(params).values():
        a.flags.writeable = False


@functools.lru_cache(maxsize=WEIGHT_MEMO_MAX)
def _shared_blocks(config: ModelConfig) -> tuple[BlockParams, ...]:
    blocks = tuple(_build_blocks(config))
    for p in blocks:
        _read_only(p)
    return blocks


@functools.lru_cache(maxsize=WEIGHT_MEMO_MAX)
def _shared_client_params(config: ModelConfig) -> ClientParams:
    client = _build_client_params(config)
    _read_only(client)
    return client


def _build_blocks(config: ModelConfig) -> list[BlockParams]:
    """Materialize every block's weights for ``config``, bit-identical on
    every call; the cold builder behind the memo."""
    d = config.hidden_dim
    scale = 1.0 / np.sqrt(d)
    s = config.seed
    blocks = []
    for b in range(config.n_blocks):
        wqkv = np.empty((d, 3 * d), np.float32)
        for i, role in enumerate(("wq", "wk", "wv")):
            wqkv[:, i * d:(i + 1) * d] = _uniform_weights(s, b, role, (d, d), scale)
        blocks.append(BlockParams(
            wqkv=wqkv,
            wo=_uniform_weights(s, b, "wo", (d, d), scale),
            w1=_uniform_weights(s, b, "w1", (d, 4 * d), scale),
            w2=_uniform_weights(s, b, "w2", (4 * d, d), scale),
            ln1_g=np.ones(d, np.float32),
            ln1_b=np.zeros(d, np.float32),
            ln2_g=np.ones(d, np.float32),
            ln2_b=np.zeros(d, np.float32),
        ))
    return blocks


def _build_client_params(config: ModelConfig) -> ClientParams:
    """The embedding for ``config``, bit-identical on every call; the cold
    builder behind the memo."""
    d = config.hidden_dim
    return ClientParams(embedding=_uniform_weights(
        config.seed, config.n_blocks, "embedding", (config.vocab_size, d), 1.0 / np.sqrt(d)))


def params_hash(blocks: list[BlockParams]) -> str:
    """Stable content hash of all block weights (immutability checks)."""
    h = hashlib.sha256()
    for p in blocks:
        for a in p.arrays():
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def parameter_count(config: ModelConfig, prompt_len: int = 0) -> int:
    """Total parameters: blocks + embedding (+ soft prompt if any)."""
    d = config.hidden_dim
    per_block = 4 * d * d + 8 * d * d + 4 * d
    return config.n_blocks * per_block + config.vocab_size * d + prompt_len * d


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def _centre_and_var(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x minus its row mean, and the row variance.

    The same sum, divide, subtract, square, sum and divide that
    ``np.mean``/``np.var`` perform, so the bits match theirs, without their
    Python-level bookkeeping or the second mean ``var`` computes.
    """
    d = x.shape[-1]
    xc = x - np.add.reduce(x, axis=-1, keepdims=True) / d
    return xc, np.add.reduce(xc * xc, axis=-1, keepdims=True) / d


def _ln(x: np.ndarray, g: np.ndarray, b: np.ndarray) -> np.ndarray:
    xc, var = _centre_and_var(x)
    return xc / np.sqrt(var + _LN_EPS) * g + b


def _gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + np.tanh(_GELU_C * (x + 0.044715 * x * x * x)))


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    # [B, T, d] -> [B, H, T, hd]
    b, t, d = x.shape
    return x.reshape(b, t, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    # [B, H, T, hd] -> [B, T, d]
    b, h, t, hd = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * hd)


@functools.cache
def _score_scale(head_dim: int) -> np.float32:
    return np.float32(math.sqrt(head_dim))


def block_forward_batched(params: BlockParams, x: np.ndarray,
                          past_k: np.ndarray, past_v: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forward new rows through one block with a KV history.

    x: [B, n, d] new inputs; past_k/past_v: [B, t0, H, hd].
    Returns (outputs [B, n, d], k_new [B, n, H, hd], v_new [B, n, H, hd]).
    Attention is causal over history + new rows.
    """
    bsz, n, d = x.shape
    n_heads = past_k.shape[2]
    hd = d // n_heads
    t0 = past_k.shape[1]

    qkv = _ln(x, params.ln1_g, params.ln1_b) @ params.wqkv      # [B, n, 3d]
    q = _split_heads(qkv[..., :d], n_heads)                     # [B, H, n, hd]
    k_new = qkv[..., d:2 * d].reshape(bsz, n, n_heads, hd)      # [B, n, H, hd]
    v_new = qkv[..., 2 * d:].reshape(bsz, n, n_heads, hd)

    k_all = np.concatenate([past_k, k_new], axis=1).transpose(0, 2, 1, 3)  # [B, H, t0+n, hd]
    v_all = np.concatenate([past_v, v_new], axis=1).transpose(0, 2, 1, 3)

    # scale, causal mask and softmax all run in place on the one score
    # buffer: the same operations in the same order, so the same bits
    attn = q @ k_all.transpose(0, 1, 3, 2)                      # [B, H, n, t0+n]
    np.divide(attn, _score_scale(hd), out=attn)
    if n > 1:
        jj = np.arange(t0 + n)
        ii = np.arange(n)
        np.copyto(attn, np.float32(-1e30), where=jj[None, :] > (t0 + ii[:, None]))
    np.subtract(attn, np.maximum.reduce(attn, axis=-1, keepdims=True), out=attn)
    np.exp(attn, out=attn)
    np.divide(attn, np.add.reduce(attn, axis=-1, keepdims=True), out=attn)
    ctx = _merge_heads(attn @ v_all)                             # [B, n, d]
    x1 = x + ctx @ params.wo

    h2 = _ln(x1, params.ln2_g, params.ln2_b)
    y = x1 + _gelu(h2 @ params.w1) @ params.w2
    return y.astype(np.float32, copy=False), k_new, v_new


# ---------------------------------------------------------------------------
# backward (training mode: full sequence, no KV cache)
# ---------------------------------------------------------------------------

def _ln_backward(x: np.ndarray, g: np.ndarray, dy: np.ndarray) -> np.ndarray:
    d = x.shape[-1]
    xc, var = _centre_and_var(x)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = xc * inv
    dxhat = dy * g
    return inv * (dxhat - dxhat.sum(axis=-1, keepdims=True) / d
                  - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True) / d)


def _gelu_grad(x: np.ndarray) -> np.ndarray:
    u = _GELU_C * (x + 0.044715 * x * x * x)
    t = np.tanh(u)
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * _GELU_C * (1.0 + 3 * 0.044715 * x * x)


def block_backward(params: BlockParams, x: np.ndarray, dy: np.ndarray,
                   n_heads: int) -> np.ndarray:
    """Gradient of the block output wrt its inputs ``x`` ([t, d] or
    [B, t, d]), shaped like ``x``. Never touches params.

    Recomputes the forward in float64 from the recorded inputs (full batch,
    causal attention, no history) and backpropagates ``dy`` through it.
    """
    if x.shape != dy.shape:
        raise ProtocolError(f"grad shape {dy.shape} != input shape {x.shape}")
    squeeze = x.ndim == 2
    if squeeze:
        x, dy = x[None], dy[None]

    x = x.astype(np.float64)
    dy = dy.astype(np.float64)
    bsz, t, d = x.shape
    wq, wk, wv, wo = (params.wq.astype(np.float64), params.wk.astype(np.float64),
                      params.wv.astype(np.float64), params.wo.astype(np.float64))
    w1, w2 = params.w1.astype(np.float64), params.w2.astype(np.float64)
    ln1_g = params.ln1_g.astype(np.float64)
    ln2_g = params.ln2_g.astype(np.float64)
    hd = d // n_heads

    # ---- forward (float64), keeping intermediates ----
    h = _ln(x, ln1_g, params.ln1_b.astype(np.float64))
    q = _split_heads(h @ wq, n_heads)
    k = _split_heads(h @ wk, n_heads)
    v = _split_heads(h @ wv, n_heads)
    scores = q @ k.transpose(0, 1, 3, 2) / np.sqrt(hd)
    mask = np.arange(t)[None, :] > np.arange(t)[:, None]
    scores = np.where(mask, -1e30, scores)
    scores -= scores.max(axis=-1, keepdims=True)
    e = np.exp(scores)
    attn = e / e.sum(axis=-1, keepdims=True)
    ctx = _merge_heads(attn @ v)
    x1 = x + ctx @ wo
    h2 = _ln(x1, ln2_g, params.ln2_b.astype(np.float64))
    a = h2 @ w1
    g = _gelu(a)

    # ---- backward ----
    dg = dy @ w2.T
    da = dg * _gelu_grad(a)
    dh2 = da @ w1.T
    dx1 = dy + _ln_backward(x1, ln2_g, dh2)

    dctx = _split_heads(dx1 @ wo.T, n_heads)        # [B, H, t, hd]
    dattn = dctx @ v.transpose(0, 1, 3, 2)          # [B, H, t, t]
    dv = attn.transpose(0, 1, 3, 2) @ dctx
    dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
    dscores = np.where(mask, 0.0, dscores) / np.sqrt(hd)
    dq = dscores @ k
    dk = dscores.transpose(0, 1, 3, 2) @ q
    dh = (_merge_heads(dq) @ wq.T + _merge_heads(dk) @ wk.T + _merge_heads(dv) @ wv.T)
    dx = dx1 + _ln_backward(x, ln1_g, dh)

    out = dx.astype(np.float32)
    return out[0] if squeeze else out


# ---------------------------------------------------------------------------
# local generation oracles
# ---------------------------------------------------------------------------

def embed(client: ClientParams, tokens) -> np.ndarray:
    """Embedding rows of ``tokens``, shaped ``tokens.shape + (d,)``; a copy."""
    return client.embedding[np.asarray(tokens, dtype=np.intp)]


def logits_for(client: ClientParams, row: np.ndarray) -> np.ndarray:
    """Tied unembedding: hidden row -> vocab logits."""
    return row @ client.embedding.T


def greedy_pick(logits: np.ndarray) -> int:
    # argmax with ties broken toward the lowest token id (np.argmax does this)
    return int(np.argmax(logits))


def sample_pick(logits: np.ndarray, rng: np.random.Generator) -> int:
    """Seeded categorical sampling over float64 softmax probabilities."""
    z = logits.astype(np.float64)
    z = z - z.max()
    p = np.exp(z)
    p /= p.sum()
    u = rng.random()
    return int(np.searchsorted(np.cumsum(p), u, side="right"))


class _LocalRunner:
    """Single-process cached stepping through all blocks."""

    def __init__(self, config: ModelConfig, blocks: list[BlockParams]):
        self.config = config
        self.blocks = blocks
        self.caches = [KVCache.empty(config) for _ in blocks]

    def step(self, x: np.ndarray) -> np.ndarray:
        """x: [width, n, d] new rows; returns final-block outputs."""
        for p, c in zip(self.blocks, self.caches):
            x, k_new, v_new = block_forward_batched(p, x, c.keys, c.values)
            c.append(k_new, v_new)
        return x

    def reorder(self, parents_zero_based: list[int]) -> None:
        for c in self.caches:
            c.gather(parents_zero_based)


def reference_generate(config: ModelConfig, prefix: list[int], n_new: int,
                       mode: str = "greedy", sample_seed: int | None = None) -> list[int]:
    """Ground-truth generation: embed -> all blocks with KV cache -> unembed.

    Returns prefix + generated tokens. ``mode`` is "greedy" or "sample"
    (seeded). This is the oracle every distributed strategy is checked
    against.
    """
    if not prefix:
        raise ConfigurationError("prefix must be non-empty")
    if len(prefix) + n_new > config.max_seq_len:
        raise CapacityError("prefix + n_new exceeds max_seq_len")
    if n_new == 0:
        return list(prefix)
    blocks, client = init_model(config)
    runner = _LocalRunner(config, blocks)
    rng = np.random.Generator(np.random.PCG64(sample_seed)) if mode == "sample" else None

    out = list(prefix)
    x = embed(client, [prefix])
    for _ in range(n_new):
        y = runner.step(x)
        logits = logits_for(client, y[0, -1])
        tok = greedy_pick(logits) if mode == "greedy" else sample_pick(logits, rng)
        out.append(tok)
        x = embed(client, [[tok]])
    return out


def beam_select(scores: np.ndarray, all_logits: np.ndarray, k: int
                ) -> tuple[list[int], list[int], np.ndarray]:
    """One beam-search selection step, shared by the local oracle and the
    distributed client so both apply identical scoring and tie-breaks.

    scores: [w] cumulative log-probs; all_logits: [w, vocab].
    Returns (parent slot per new beam, token per new beam, new scores),
    ranked by score descending, ties broken by (parent, token) ascending.
    """
    w, vocab = all_logits.shape
    z = all_logits.astype(np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    cand = scores[:, None] + logp                      # [w, vocab]
    flat = cand.ravel()
    order = np.lexsort((np.tile(np.arange(vocab), w),       # token asc
                        np.repeat(np.arange(w), vocab),     # parent asc
                        -flat))                              # score desc
    top = order[:k]
    parents = (top // vocab).tolist()
    tokens = (top % vocab).tolist()
    return parents, tokens, flat[top]


def reference_beam(config: ModelConfig, prefix: list[int], n_new: int, k: int
                   ) -> list[tuple[list[int], float]]:
    """Local beam-search oracle: k ranked (tokens, score) hypotheses.

    Mirrors the distributed procedure exactly: width-1 prefill, then the
    prefix cache is cloned k ways and each step but the last gathers caches
    by the selected parents.
    """
    if not prefix:
        raise ConfigurationError("prefix must be non-empty")
    if k < 1:
        raise ConfigurationError("beam width must be >= 1")
    if len(prefix) + n_new > config.max_seq_len:
        raise CapacityError("prefix + n_new exceeds max_seq_len")
    blocks, client = init_model(config)
    runner = _LocalRunner(config, blocks)

    hyps, scores = [list(prefix)], np.zeros(1)
    x = embed(client, [prefix])                        # [1, t, d]
    for i in range(n_new):
        y = runner.step(x)
        parents, tokens, scores = beam_select(scores, logits_for(client, y[:, -1]), k)
        hyps = [hyps[p] + [t] for p, t in zip(parents, tokens)]
        if i < n_new - 1:
            runner.reorder(parents)                    # the first turns width 1 into k clones
            x = embed(client, [[h[-1]] for h in hyps])  # [k, 1, d]
    return [(h, float(s)) for h, s in zip(hyps, scores)]
