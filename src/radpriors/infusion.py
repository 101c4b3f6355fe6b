"""Binary prior infusion in a desk-scale encoder-decoder stub.

The real report generators this mimics take a frontal/lateral image
pair, extract patch embeddings V, encode them into latents L, and decode
a token sequence. Here the whole stack is a small deterministic numpy
model so the infusion arithmetic can be tested exactly:

    V_new = V + P        right after the visual extractor, before the
                         positional encoding is added;
    L_new = L + P        right after the final encoder block.

P is a plain scalar broadcast over positions and channels. Infusion adds
no parameters: the model's weight count is identical with and without it.
The shapes are module constants, so a model's one setting is its seed.

Encoder and decoder run one residual attention block, each with its own
weights: self-attention over the patch rows in the encoder, and at each
decoder position cross-attention over the infused latents. One encoder
pass serves :func:`forward` and :func:`teacher_forced_loss`, a loss
along the fixed tokens ``PROBE`` whose gradients are implemented by hand
(reverse-mode over the fixed graph, one backward of the block for both
uses) and validated against central finite differences in
:func:`grad_check`.
All arithmetic is float64. Every seeded value (images, weights, the
probes' indices) comes from the standard library's ``random.Random``
through ``random()`` alone, whose stream Python keeps across versions,
so equal seeds give bitwise-equal weights and outputs. ``Random`` takes
a seed's absolute value, so a negative seed raises :class:`InfusionError`.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable, Iterator
from typing import NamedTuple

import numpy as np

from ._io import DEFAULT_SEED, DataError

__all__ = [
    "InfusionError",
    "ImagePair",
    "ToyModel",
    "ForwardResult",
    "GradCheckReport",
    "demo_image_pair",
    "visual_extract",
    "infuse",
    "forward",
    "teacher_forced_loss",
    "grad_check",
]

BOS_TOKEN = 0
EOS_TOKEN = 1

IMAGE_SIZE = 16
PATCH_SIZE = 8
PATCH_DIM = PATCH_SIZE * PATCH_SIZE
NUM_PATCHES = 2 * (IMAGE_SIZE // PATCH_SIZE) ** 2  # frontal plus lateral
EMBED_DIM = 16    # d, per-patch embedding width
LATENT_DIM = 16   # f, per-position latent width
HIDDEN_DIM = 32
VOCAB_SIZE = 32
MAX_LEN = 12
PROBE = (2, 3, 4, 5, 6, 7)  # teacher-forced tokens of the probe loss
GRAD_CHECK_STEP = 1e-4  # finite-difference step of grad_check
GRAD_CHECK_SEED = 0     # seed of grad_check's probe indices


class InfusionError(DataError):
    """Bad model input: wrong shapes, non-finite values, bad prior."""


class ImagePair(NamedTuple):
    """A frontal and lateral view, each a square float image."""

    frontal: np.ndarray
    lateral: np.ndarray


def _draws(seed: int) -> Callable[[], float]:
    """``Random(seed).random``; a negative seed would repeat ``-seed``'s."""
    if seed < 0:
        raise InfusionError(f"seed must be 0 or more, got {seed!r}")
    return random.Random(seed).random


def demo_image_pair(seed: int) -> ImagePair:
    """Deterministic synthetic image pair for demos and tests.

    Each pixel is ``2u - 1`` for the next ``u`` of ``Random(seed)``,
    frontal then lateral, each in row-major order.
    """
    draw = _draws(seed)
    pixels = [2.0 * draw() - 1.0 for _ in range(2 * IMAGE_SIZE * IMAGE_SIZE)]
    frontal, lateral = np.array(pixels).reshape(2, IMAGE_SIZE, IMAGE_SIZE)
    return ImagePair(frontal=frontal, lateral=lateral)


def _standard_normals(draw: Callable[[], float]) -> Iterator[float]:
    """Box-Muller on pairs of draws ``u1, u2``: yields
    ``sqrt(-2 ln(1 - u1))`` times ``cos``, then ``sin``, of ``2 pi u2``."""
    while True:
        radius = math.sqrt(-2.0 * math.log(1.0 - draw()))
        angle = 2.0 * math.pi * draw()
        yield radius * math.cos(angle)
        yield radius * math.sin(angle)


def _sinusoid(length: int, width: int) -> np.ndarray:
    """Fixed sinusoidal positional encoding; carries no parameters."""
    positions = np.arange(length, dtype=float)[:, None]
    channels = np.arange(width, dtype=float)[None, :]
    angles = positions / np.power(10000.0, 2.0 * (channels // 2) / width)
    table = np.where(channels % 2 == 0, np.sin(angles), np.cos(angles))
    return table


_PARAM_SHAPES = (
    # name, shape, fan-in (None: a bias, drawn at scale 0.1)
    ("W_proj", (PATCH_DIM, EMBED_DIM), PATCH_DIM),
    ("W_q", (EMBED_DIM, EMBED_DIM), EMBED_DIM),
    ("W_k", (EMBED_DIM, EMBED_DIM), EMBED_DIM),
    ("W_v", (EMBED_DIM, EMBED_DIM), EMBED_DIM),
    ("W_o", (EMBED_DIM, EMBED_DIM), EMBED_DIM),
    ("W_f1", (EMBED_DIM, HIDDEN_DIM), EMBED_DIM),
    ("b_f1", (HIDDEN_DIM,), None),
    ("W_f2", (HIDDEN_DIM, EMBED_DIM), HIDDEN_DIM),
    ("b_f2", (EMBED_DIM,), None),
    ("W_lat", (EMBED_DIM, LATENT_DIM), EMBED_DIM),
    ("E", (VOCAB_SIZE, LATENT_DIM), LATENT_DIM),
    ("W_dq", (LATENT_DIM, LATENT_DIM), LATENT_DIM),
    ("W_dk", (LATENT_DIM, LATENT_DIM), LATENT_DIM),
    ("W_dv", (LATENT_DIM, LATENT_DIM), LATENT_DIM),
    ("W_do", (LATENT_DIM, LATENT_DIM), LATENT_DIM),
    ("W_g1", (LATENT_DIM, HIDDEN_DIM), LATENT_DIM),
    ("b_g1", (HIDDEN_DIM,), None),
    ("W_g2", (HIDDEN_DIM, LATENT_DIM), HIDDEN_DIM),
    ("b_g2", (LATENT_DIM,), None),
    ("W_out", (LATENT_DIM, VOCAB_SIZE), LATENT_DIM),
)


class ToyModel:
    """Parameter store plus the fixed positional tables."""

    def __init__(self, seed: int = DEFAULT_SEED) -> None:
        # One stream of standard normals fills the parameters in table
        # order, each in row-major order.
        normals = _standard_normals(_draws(seed))
        self.params: dict[str, np.ndarray] = {}
        for name, shape, fan_in in _PARAM_SHAPES:
            weights = np.fromiter(normals, float,
                                  math.prod(shape)).reshape(shape)
            if fan_in is not None:
                weights /= math.sqrt(fan_in)
            else:
                weights *= 0.1
            self.params[name] = weights
        self.enc_pos = _sinusoid(NUM_PATCHES, EMBED_DIM)
        self.dec_pos = _sinusoid(MAX_LEN, LATENT_DIM)

    def parameter_count(self) -> int:
        return sum(p.size for p in self.params.values())


def _check_prior(prior: float) -> float:
    try:
        value = float(prior)
    except (TypeError, ValueError) as exc:
        raise InfusionError(f"prior must be a real scalar, got {prior!r}") from exc
    if not math.isfinite(value):
        raise InfusionError(f"prior must be finite, got {value!r}")
    return value


def infuse(tensor: np.ndarray, prior: float) -> np.ndarray:
    """Broadcast-add the prior scalar over every position and channel."""
    value = _check_prior(prior)
    return np.asarray(tensor, dtype=float) + value


def _flatten_patches(images: ImagePair) -> np.ndarray:
    """Rows: each view's patches in row-major order, each patch flattened."""
    shape = (IMAGE_SIZE, IMAGE_SIZE)
    views = []
    for view_name in ("frontal", "lateral"):
        view = np.asarray(getattr(images, view_name), dtype=float)
        if view.shape != shape:
            raise InfusionError(
                f"{view_name} image must have shape {shape}, "
                f"got {view.shape}")
        if not np.isfinite(view).all():
            raise InfusionError(f"{view_name} image contains non-finite values")
        views.append(view)
    grid = IMAGE_SIZE // PATCH_SIZE
    return (np.stack(views).reshape(2, grid, PATCH_SIZE, grid, PATCH_SIZE)
            .swapaxes(2, 3).reshape(NUM_PATCHES, PATCH_DIM))


def visual_extract(images: ImagePair, model: ToyModel) -> np.ndarray:
    """Project flattened patches to the (S, d) embedding.

    The projection has no bias, so all-zero images map to the all-zero
    embedding. Frontal patches occupy the first S/2 rows; swapping the
    views therefore changes the embedding.
    """
    return _flatten_patches(images) @ model.params["W_proj"]


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=-1, keepdims=True)
    weights = np.exp(shifted)
    return weights / weights.sum(axis=-1, keepdims=True)


# Each block's query, output projection and MLP weights, in _block's order.
_ENCODER_BLOCK = ("W_q", "W_o", "W_f1", "b_f1", "W_f2", "b_f2")
_DECODER_BLOCK = ("W_dq", "W_do", "W_g1", "b_g1", "W_g2", "b_g2")


def _block(model: ToyModel, names: tuple[str, ...], x: np.ndarray,
           keys: np.ndarray, values: np.ndarray
           ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Rows of ``x`` attend over projected ``keys`` and ``values``, then
    pass ``W_o``, a residual, the tanh MLP and a residual; returns the
    output and the cache :func:`_block_backward` reads."""
    W_q, W_o, W_1, b_1, W_2, b_2 = (model.params[name] for name in names)
    Q = x @ W_q
    A = _softmax_rows(Q @ keys.T / math.sqrt(keys.shape[1]))
    C = A @ values
    H = x + C @ W_o
    F = np.tanh(H @ W_1 + b_1)
    out = H + F @ W_2 + b_2
    return out, {"x": x, "keys": keys, "values": values, "Q": Q, "A": A,
                 "C": C, "H": H, "F": F, "out": out}


def _block_backward(model: ToyModel, names: tuple[str, ...],
                    cache: dict[str, np.ndarray], d_out: np.ndarray,
                    grads: dict[str, np.ndarray]
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Add the block's weight gradients to ``grads``; return the
    gradients of its ``x``, ``keys`` and ``values``."""
    p = model.params
    W_q, W_o, W_1, b_1, W_2, b_2 = names
    A, F = cache["A"], cache["F"]
    grads[W_2] += F.T @ d_out
    grads[b_2] += d_out.sum(axis=0)
    dU = (d_out @ p[W_2].T) * (1.0 - F ** 2)
    grads[W_1] += cache["H"].T @ dU
    grads[b_1] += dU.sum(axis=0)
    dH = d_out + dU @ p[W_1].T
    grads[W_o] += cache["C"].T @ dH
    dC = dH @ p[W_o].T
    dA = dC @ cache["values"].T
    d_values = A.T @ dC
    dScores = A * (dA - (dA * A).sum(axis=1, keepdims=True))
    scale = math.sqrt(cache["keys"].shape[1])
    dQ = dScores @ cache["keys"] / scale
    d_keys = dScores.T @ cache["Q"] / scale
    grads[W_q] += cache["x"].T @ dQ
    return dH + dQ @ p[W_q].T, d_keys, d_values


def _encode(model: ToyModel, images: ImagePair, prior: float | None) -> dict:
    """Run extractor and encoder, keeping intermediates for backprop.

    The state also holds the decoder's keys ``Kd`` and values ``Vd``
    over the infused latents ``Ln``. ``prior=None`` removes the infusion
    steps entirely (the baseline path), which is distinct from adding a
    zero.
    """
    p = model.params
    V = visual_extract(images, model)
    V1 = V if prior is None else infuse(V, prior)
    V2 = V1 + model.enc_pos
    H2, block = _block(model, _ENCODER_BLOCK, V2, V2 @ p["W_k"],
                       V2 @ p["W_v"])
    L = H2 @ p["W_lat"]
    Ln = L if prior is None else infuse(L, prior)
    if not np.isfinite(Ln).all():
        raise InfusionError("encoder produced non-finite latents")
    return {"block": block, "L": L, "Ln": Ln,
            "Kd": Ln @ p["W_dk"], "Vd": Ln @ p["W_dv"]}


def _decode_position(model: ToyModel, state: dict, token: int,
                     position: int) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """One row of logits after ``token`` at ``position``; the block cache."""
    p = model.params
    x = (p["E"][token] + model.dec_pos[position])[None]
    z, block = _block(model, _DECODER_BLOCK, x, state["Kd"], state["Vd"])
    return z @ p["W_out"], block


class ForwardResult(NamedTuple):
    """Decoded tokens plus the latents before and after infusion."""

    tokens: list[int]
    latent: np.ndarray
    latent_infused: np.ndarray


def forward(model: ToyModel, images: ImagePair, prior: float | None,
            max_len: int | None = None) -> ForwardResult:
    """Full infused forward pass: images to greedy token sequence.

    ``prior=None`` is the no-infusion baseline: both infusion steps are
    deleted, which is distinct from adding a zero prior. ``max_len``
    defaults to, and may not exceed, ``MAX_LEN``.
    """
    max_len = MAX_LEN if max_len is None else max_len
    if not 1 <= max_len <= MAX_LEN:
        raise InfusionError(
            f"max_len must lie in 1..{MAX_LEN}, got {max_len!r}")
    state = _encode(model, images, prior)
    tokens: list[int] = []
    token = BOS_TOKEN
    for position in range(max_len):
        logits, _ = _decode_position(model, state, token, position)
        if not np.isfinite(logits).all():
            raise InfusionError("decoder produced non-finite logits")
        token = int(np.argmax(logits))
        tokens.append(token)
        if token == EOS_TOKEN:
            break
    return ForwardResult(tokens=tokens, latent=state["L"],
                         latent_infused=state["Ln"])


def _probe_forward(model: ToyModel, images: ImagePair, prior: float,
                   ) -> tuple[float, dict, list[dict[str, np.ndarray]]]:
    """Forward half of :func:`teacher_forced_loss`.

    Returns (loss, encoder state, per-position decoder block caches): the
    loss plus everything the backward pass reads. Finite-difference
    probes need the loss alone.
    """
    # The probe loss has no baseline path: a prior of None is refused.
    state = _encode(model, images, _check_prior(prior))
    steps = [_decode_position(model, state, token, position)
             for position, token in enumerate(PROBE)]
    loss = math.fsum(float(logits.sum()) for logits, _ in steps)
    return loss, state, [block for _, block in steps]


def teacher_forced_loss(model: ToyModel, images: ImagePair, prior: float,
                        ) -> tuple[float, dict[str, np.ndarray], float]:
    """Scalar probe loss with analytic gradients.

    The loss is the sum of all pre-softmax decoder outputs along the
    teacher-forced token sequence ``PROBE``, which keeps it smooth in
    every parameter (greedy argmax choices would not be).
    Returns (loss, weight gradients, d loss / d prior).
    """
    loss, state, steps = _probe_forward(model, images, prior)
    p = model.params
    grads = {name: np.zeros_like(array) for name, array in p.items()}

    dKd = np.zeros_like(state["Kd"])
    dVd = np.zeros_like(state["Vd"])
    dlogits = np.ones(VOCAB_SIZE)
    dz = (p["W_out"] @ dlogits)[None]
    for block, token in zip(steps, PROBE):
        grads["W_out"] += block["out"].T @ dlogits[None]
        dx, d_keys, d_values = _block_backward(model, _DECODER_BLOCK, block,
                                               dz, grads)
        dKd += d_keys
        dVd += d_values
        grads["E"][token] += dx[0]

    Ln = state["Ln"]
    dLn = dKd @ p["W_dk"].T + dVd @ p["W_dv"].T
    grads["W_dk"] += Ln.T @ dKd
    grads["W_dv"] += Ln.T @ dVd
    d_prior = float(dLn.sum())

    block = state["block"]
    grads["W_lat"] += block["out"].T @ dLn
    dV2, dK, dVv = _block_backward(model, _ENCODER_BLOCK, block,
                                   dLn @ p["W_lat"].T, grads)
    V2 = block["x"]
    grads["W_k"] += V2.T @ dK
    dV2 += dK @ p["W_k"].T
    grads["W_v"] += V2.T @ dVv
    dV2 += dVv @ p["W_v"].T

    d_prior += float(dV2.sum())
    grads["W_proj"] += _flatten_patches(images).T @ dV2
    return loss, grads, d_prior


class GradCheckReport(NamedTuple):
    """Analytic vs finite-difference agreement for sampled parameters."""

    max_rel_error: float
    per_param: dict[str, float]
    prior_analytic: float
    prior_fd: float


def _rel_error(analytic: float, numeric: float) -> float:
    denom = max(abs(analytic), abs(numeric), 1e-6)
    return abs(analytic - numeric) / denom


def grad_check(model: ToyModel, images: ImagePair,
               prior: float) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    One entry of every parameter array is sampled along with d loss /
    d prior: the flat index ``int(u * array.size)`` for the next ``u`` of
    ``Random(GRAD_CHECK_SEED)``, so the choice is reproducible. The
    analytic gradients take one backward pass; each finite-difference
    probe, a step of ``GRAD_CHECK_STEP``, runs forward only.
    """
    step = GRAD_CHECK_STEP
    draw = _draws(GRAD_CHECK_SEED)
    _, grads, d_prior = teacher_forced_loss(model, images, prior)
    per_param: dict[str, float] = {}

    def loss_at(prior_value: float) -> float:
        return _probe_forward(model, images, prior_value)[0]

    for name, array in model.params.items():
        index = np.unravel_index(int(draw() * array.size), array.shape)
        original = array[index]
        array[index] = original + step
        plus = loss_at(prior)
        array[index] = original - step
        minus = loss_at(prior)
        array[index] = original
        numeric = (plus - minus) / (2.0 * step)
        per_param[name] = _rel_error(float(grads[name][index]), numeric)

    prior_fd = (loss_at(prior + step) - loss_at(prior - step)) / (2.0 * step)
    per_param["prior"] = _rel_error(d_prior, prior_fd)
    return GradCheckReport(
        max_rel_error=max(per_param.values()),
        per_param=per_param,
        prior_analytic=d_prior,
        prior_fd=prior_fd,
    )
