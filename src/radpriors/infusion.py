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

One encoder pass serves :func:`forward` and :func:`teacher_forced_loss`,
a loss along the fixed tokens ``PROBE`` whose gradients are implemented
by hand (reverse-mode over the fixed graph) and validated against
central finite differences in :func:`grad_check`.
All arithmetic is float64 with seeded initialization, so equal seeds
give bitwise-equal weights and outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._io import DataError

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


class InfusionError(DataError):
    """Bad model input: wrong shapes, non-finite values, bad prior."""


@dataclass(frozen=True)
class ImagePair:
    """A frontal and lateral view, each a square float image."""

    frontal: np.ndarray
    lateral: np.ndarray


def demo_image_pair(seed: int) -> ImagePair:
    """Deterministic synthetic image pair for demos and tests."""
    rng = np.random.default_rng(seed)
    shape = (IMAGE_SIZE, IMAGE_SIZE)
    return ImagePair(frontal=rng.uniform(-1.0, 1.0, shape),
                     lateral=rng.uniform(-1.0, 1.0, shape))


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

    def __init__(self, seed: int = 17) -> None:
        rng = np.random.default_rng(seed)
        self.params: dict[str, np.ndarray] = {}
        for name, shape, fan_in in _PARAM_SHAPES:
            weights = rng.standard_normal(shape)
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
    shape = (IMAGE_SIZE, IMAGE_SIZE)
    rows = []
    for view_name in ("frontal", "lateral"):
        view = np.asarray(getattr(images, view_name), dtype=float)
        if view.shape != shape:
            raise InfusionError(
                f"{view_name} image must have shape {shape}, "
                f"got {view.shape}")
        if not np.isfinite(view).all():
            raise InfusionError(f"{view_name} image contains non-finite values")
        for i in range(0, IMAGE_SIZE, PATCH_SIZE):
            for j in range(0, IMAGE_SIZE, PATCH_SIZE):
                rows.append(view[i:i + PATCH_SIZE,
                                 j:j + PATCH_SIZE].reshape(-1))
    return np.stack(rows)


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


def _encode(model: ToyModel, images: ImagePair,
            prior: float | None) -> dict[str, np.ndarray]:
    """Run extractor and encoder, keeping intermediates for backprop.

    The state also holds the decoder's keys ``Kd`` and values ``Vd``
    over the infused latents ``Ln``. ``prior=None`` removes the infusion
    steps entirely (the baseline path), which is distinct from adding a
    zero.
    """
    prior = None if prior is None else _check_prior(prior)
    patches = _flatten_patches(images)
    p = model.params
    V = patches @ p["W_proj"]
    V1 = V if prior is None else infuse(V, prior)
    V2 = V1 + model.enc_pos
    Q = V2 @ p["W_q"]
    K = V2 @ p["W_k"]
    Vv = V2 @ p["W_v"]
    scores = Q @ K.T / math.sqrt(EMBED_DIM)
    A = _softmax_rows(scores)
    C = A @ Vv
    H = V2 + C @ p["W_o"]
    U = H @ p["W_f1"] + p["b_f1"]
    F = np.tanh(U)
    H2 = H + F @ p["W_f2"] + p["b_f2"]
    L = H2 @ p["W_lat"]
    Ln = L if prior is None else infuse(L, prior)
    if not np.isfinite(Ln).all():
        raise InfusionError("encoder produced non-finite latents")
    return {"patches": patches, "V2": V2, "Q": Q, "K": K, "Vv": Vv,
            "A": A, "C": C, "H": H, "F": F, "H2": H2, "L": L, "Ln": Ln,
            "Kd": Ln @ p["W_dk"], "Vd": Ln @ p["W_dv"]}


def _decoder_step(model: ToyModel, Kd: np.ndarray, Vd: np.ndarray,
                  token: int, position: int) -> dict[str, np.ndarray]:
    p = model.params
    q = p["E"][token] + model.dec_pos[position]
    r = q @ p["W_dq"]
    s = Kd @ r / math.sqrt(LATENT_DIM)
    a = _softmax_rows(s)
    m = a @ Vd
    c = m @ p["W_do"]
    h = q + c
    u = h @ p["W_g1"] + p["b_g1"]
    g = np.tanh(u)
    z = h + g @ p["W_g2"] + p["b_g2"]
    logits = z @ p["W_out"]
    return {"q": q, "r": r, "a": a, "m": m, "h": h, "g": g, "z": z,
            "logits": logits}


@dataclass
class ForwardResult:
    """Decoded tokens plus the latents before and after infusion."""

    tokens: list[int]
    latent: np.ndarray
    latent_infused: np.ndarray


def _greedy_decode(model: ToyModel, state: dict[str, np.ndarray],
                   max_len: int) -> list[int]:
    tokens: list[int] = []
    token = BOS_TOKEN
    for position in range(max_len):
        step = _decoder_step(model, state["Kd"], state["Vd"], token,
                             position)
        if not np.isfinite(step["logits"]).all():
            raise InfusionError("decoder produced non-finite logits")
        token = int(np.argmax(step["logits"]))
        tokens.append(token)
        if token == EOS_TOKEN:
            break
    return tokens


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
    tokens = _greedy_decode(model, state, max_len)
    return ForwardResult(tokens=tokens, latent=state["L"],
                         latent_infused=state["Ln"])


def _probe_forward(model: ToyModel, images: ImagePair, prior: float,
                   ) -> tuple[float, dict[str, np.ndarray],
                              list[dict[str, np.ndarray]]]:
    """Forward half of :func:`teacher_forced_loss`.

    Returns (loss, encoder state, per-position decoder steps): the loss
    plus everything the backward pass reads. Finite-difference probes
    need the loss alone.
    """
    # The probe loss has no baseline path: a prior of None is refused.
    state = _encode(model, images, _check_prior(prior))
    steps = [_decoder_step(model, state["Kd"], state["Vd"], token, position)
             for position, token in enumerate(PROBE)]
    loss = math.fsum(float(step["logits"].sum()) for step in steps)
    return loss, state, steps


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
    patches, Ln = state["patches"], state["Ln"]
    Kd, Vd = state["Kd"], state["Vd"]

    grads = {name: np.zeros_like(array) for name, array in p.items()}
    d_prior = 0.0
    sqrt_f = math.sqrt(LATENT_DIM)
    sqrt_d = math.sqrt(EMBED_DIM)

    dKd = np.zeros_like(Kd)
    dVd = np.zeros_like(Vd)
    dlogits = np.ones(VOCAB_SIZE)
    for step, token in zip(steps, PROBE):
        grads["W_out"] += np.outer(step["z"], dlogits)
        dz = p["W_out"] @ dlogits
        grads["b_g2"] += dz
        grads["W_g2"] += np.outer(step["g"], dz)
        dg = dz @ p["W_g2"].T
        dh = dz.copy()
        du = dg * (1.0 - step["g"] ** 2)
        grads["W_g1"] += np.outer(step["h"], du)
        grads["b_g1"] += du
        dh += du @ p["W_g1"].T
        dc = dh
        dq = dh.copy()
        grads["W_do"] += np.outer(step["m"], dc)
        dm = dc @ p["W_do"].T
        dVd += np.outer(step["a"], dm)
        da = Vd @ dm
        ds = step["a"] * (da - float(da @ step["a"]))
        dKd += np.outer(ds, step["r"]) / sqrt_f
        dr = Kd.T @ ds / sqrt_f
        grads["W_dq"] += np.outer(step["q"], dr)
        dq += dr @ p["W_dq"].T
        grads["E"][token] += dq

    dLn = dKd @ p["W_dk"].T + dVd @ p["W_dv"].T
    grads["W_dk"] += Ln.T @ dKd
    grads["W_dv"] += Ln.T @ dVd
    d_prior += float(dLn.sum())

    dH2 = dLn @ p["W_lat"].T
    grads["W_lat"] += state["H2"].T @ dLn
    dH = dH2.copy()
    grads["W_f2"] += state["F"].T @ dH2
    grads["b_f2"] += dH2.sum(axis=0)
    dF = dH2 @ p["W_f2"].T
    dU = dF * (1.0 - state["F"] ** 2)
    grads["W_f1"] += state["H"].T @ dU
    grads["b_f1"] += dU.sum(axis=0)
    dH += dU @ p["W_f1"].T

    dV2 = dH.copy()
    dC = dH @ p["W_o"].T
    grads["W_o"] += state["C"].T @ dH
    dA = dC @ state["Vv"].T
    dVv = state["A"].T @ dC
    row_dot = (dA * state["A"]).sum(axis=1, keepdims=True)
    dScores = state["A"] * (dA - row_dot)
    dQ = dScores @ state["K"] / sqrt_d
    dK = dScores.T @ state["Q"] / sqrt_d
    grads["W_q"] += state["V2"].T @ dQ
    dV2 += dQ @ p["W_q"].T
    grads["W_k"] += state["V2"].T @ dK
    dV2 += dK @ p["W_k"].T
    grads["W_v"] += state["V2"].T @ dVv
    dV2 += dVv @ p["W_v"].T

    d_prior += float(dV2.sum())
    grads["W_proj"] += patches.T @ dV2
    return loss, grads, d_prior


@dataclass
class GradCheckReport:
    """Analytic vs finite-difference agreement for sampled parameters."""

    max_rel_error: float
    per_param: dict[str, float]
    prior_analytic: float
    prior_fd: float


def _rel_error(analytic: float, numeric: float) -> float:
    denom = max(abs(analytic), abs(numeric), 1e-6)
    return abs(analytic - numeric) / denom


def grad_check(model: ToyModel, images: ImagePair, prior: float,
               step: float = 1e-4, sample_seed: int = 0) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    One entry of every parameter array is sampled (seeded, so the choice
    is reproducible) along with d loss / d prior. The analytic gradients
    take one backward pass; each finite-difference probe runs forward
    only.
    """
    _, grads, d_prior = teacher_forced_loss(model, images, prior)
    rng = np.random.default_rng(sample_seed)
    per_param: dict[str, float] = {}

    def loss_at(prior_value: float) -> float:
        return _probe_forward(model, images, prior_value)[0]

    for name, array in model.params.items():
        flat_index = int(rng.integers(array.size))
        index = np.unravel_index(flat_index, array.shape)
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
