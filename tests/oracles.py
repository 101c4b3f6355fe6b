"""Plain reference implementations the fast paths are held to.

``reference_extract_findings`` finds the headers in the text's plain
lowercase and, where that is longer than the text (each "İ" lowercases
to two characters), maps each offset back one character at a time.

``reference_split_sentences`` is the character loop that found sentence
boundaries before one regex did. It keeps its own copy of the guard that
holds a period after an initial or an abbreviation inside the sentence,
so a faster guard in ``corpus`` is checked against this one.
``reference_make_report`` and ``reference_label`` are the per-record
chain that ``label_corpus`` ran on every record before it screened
findings sections and sentences for keyword surfaces: findings,
sentences by the loop, tokens of every sentence, then the labeler's
stages as they ran before the rule set indexed keywords and template
literals.  ``reference_extract_mentions`` sorts each token's candidate
keywords; ``reference_classify_one`` tries every negation template, then
every prior template, in file order.

``reference_flatten_patches``, ``reference_forward`` and
``reference_teacher_forced_loss`` are the toy model as it ran before one
attention block served its encoder and decoder: the patches cut by a
nested slicing loop, the encoder in matrix form, each decoder position
in vector form, and the backward pass written twice, as matrix products
for the encoder and as per-position ``np.outer`` sums for the decoder.

``reference_grad_check`` is the finite-difference check as it ran when
every probe called ``teacher_forced_loss``, backward pass included, and
kept only the loss.  It draws each probe's flat index as ``grad_check``
does, ``int(u * array.size)`` for the next ``u`` of
``random.Random(sample_seed)``.

``reference_template_match`` is ``RuleTemplate.match`` as it ran before
the matcher remembered the (atom, position) states that failed: each gap
tries its widths shortest first and backtracks through every later gap,
which is exponential in the number of gaps.

``cosine`` is the dict adapter over ``metrics._cosine`` that ``metrics``
exported while no scoring path called it; the cosine tests reach the
scorer's cosine through it.
"""

import math
import random
from itertools import repeat

import numpy as np

from radpriors.corpus import Report, tokenize
from radpriors.infusion import (BOS_TOKEN, EMBED_DIM, EOS_TOKEN, IMAGE_SIZE,
                                LATENT_DIM, MAX_LEN, PATCH_SIZE, PROBE,
                                VOCAB_SIZE, ForwardResult, GradCheckReport,
                                _rel_error, _softmax_rows, infuse,
                                teacher_forced_loss)
from radpriors.labeler import (ClassifiedMention, Mention, PriorLabel,
                               Verdict)
from radpriors.metrics import _cosine
from radpriors.rules import _Gap


FINDINGS_HEADER = "findings:"
STOP_HEADERS = ("impression:", "recommendation:")
ABBREVIATIONS = {"dr", "mr", "mrs", "ms", "vs", "a.m", "p.m", "e.g", "i.e"}


def reference_extract_findings(raw_text):
    lowered = raw_text.lower()
    start = lowered.find(FINDINGS_HEADER)
    if start < 0:
        return raw_text
    body_start = start + len(FINDINGS_HEADER)
    body_end = len(lowered)
    for header in STOP_HEADERS:
        pos = lowered.find(header, body_start)
        if 0 <= pos < body_end:
            body_end = pos
    if len(lowered) != len(raw_text):
        body_start = _raw_offset(raw_text, body_start)
        body_end = _raw_offset(raw_text, body_end)
    return raw_text[body_start:body_end].strip()


def _raw_offset(raw_text, lowered_offset):
    # Where ``raw_text.lower()[lowered_offset:]`` starts in ``raw_text``.
    lowered_end = 0
    for index, ch in enumerate(raw_text):
        if lowered_end >= lowered_offset:
            return index
        lowered_end += len(ch.lower())
    return len(raw_text)


def reference_guarded_period(text, i):
    j = i
    while j > 0 and not text[j - 1].isspace():
        j -= 1
    word = text[j:i].lower()
    if len(word) == 1 and word.isalpha():
        return True
    return word in ABBREVIATIONS


def reference_split_sentences(text):
    sentences = []
    start = 0
    n = len(text)
    for i, ch in enumerate(text):
        if ch not in ".!?":
            continue
        if i + 1 < n and not text[i + 1].isspace():
            continue
        if ch == "." and reference_guarded_period(text, i):
            continue
        sentence = text[start:i + 1].strip()
        if sentence:
            sentences.append(sentence)
        start = i + 1
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


def reference_make_report(report_id, raw_text):
    sentences = reference_split_sentences(reference_extract_findings(raw_text))
    return Report(id=report_id, sentences=sentences,
                  tokens=[tokenize(s) for s in sentences])


def reference_extract_mentions(report, rules):
    exact = {}
    stems = []
    for index, entry in enumerate(rules.keywords):
        if entry.stem:
            stems.append((index, entry))
        elif entry.surface not in exact:
            exact[entry.surface] = (index, entry)

    mentions = []
    for sentence_index, tokens in enumerate(report.tokens):
        for position, token in enumerate(tokens):
            candidates = []
            if token in exact:
                candidates.append(exact[token])
            for index, entry in stems:
                if entry.matches(token):
                    candidates.append((index, entry))
            if not candidates:
                continue
            candidates.sort(key=lambda item: (-len(item[1].surface), item[0]))
            mentions.append(Mention(
                keyword=candidates[0][1],
                sentence_index=sentence_index,
                token_span=(position, position + 1),
                surface=token,
            ))
    return mentions


def reference_classify_one(mention, tokens, rules):
    for template in rules.negation_patterns:
        span = template.match(tokens, mention.token_span)
        if span is not None:
            return ClassifiedMention(mention, Verdict.NEGATED,
                                     template.rule_id, span)
    needs_marker = mention.keyword.surface in rules.change_verbs
    for template in rules.prior_patterns:
        if needs_marker and not template.is_marker:
            continue
        span = template.match(tokens, mention.token_span)
        if span is not None:
            return ClassifiedMention(mention, Verdict.PRIOR_EXPRESSION,
                                     template.rule_id, span)
    return ClassifiedMention(mention, Verdict.IRRELEVANT)


def reference_label_report(report, rules):
    classified = [
        reference_classify_one(mention, report.tokens[mention.sentence_index],
                               rules)
        for mention in reference_extract_mentions(report, rules)]
    evidence = tuple(item for item in classified
                     if item.verdict is Verdict.PRIOR_EXPRESSION)
    return PriorLabel(value=1 if evidence else 0, evidence=evidence)


def reference_label(report_id, raw_text, rules):
    return reference_label_report(reference_make_report(report_id, raw_text),
                                  rules)


def reference_label_corpus(records, rules, text_source="text"):
    return [reference_label(record.id, getattr(record, text_source), rules)
            for record in records]


def _reference_match(atoms, tokens, k, pos, step):
    while k < len(atoms):
        atom = atoms[k]
        if isinstance(atom, _Gap):
            for width in range(atom.max + 1):
                gap_end = pos + step * width
                if not 0 <= gap_end < len(tokens):
                    break
                found = _reference_match(atoms, tokens, k + 1, gap_end, step)
                if found is not None:
                    return found
            return None
        if not 0 <= pos < len(tokens) or tokens[pos] not in atom.choices:
            return None
        pos += step
        k += 1
    return pos


def reference_template_match(template, tokens, span):
    before = _reference_match(template.pre, tokens, 0, span[0] - 1, -1)
    if before is None:
        return None
    end = _reference_match(template.post, tokens, 0, span[1], 1)
    if end is None:
        return None
    return (before + 1, end)


def cosine(u, v):
    """Cosine similarity of sparse dict vectors by ``metrics._cosine``."""
    return _cosine(list(u.values()), list(map(v.get, u, repeat(0.0))),
                   list(v.values()), u.keys() == v.keys())


def reference_grad_check(model, images, prior, step=1e-4, sample_seed=0):
    loss, grads, d_prior = teacher_forced_loss(model, images, prior)
    del loss
    draw = random.Random(sample_seed).random
    per_param = {}

    def loss_at(prior_value):
        value, _, _ = teacher_forced_loss(model, images, prior_value)
        return value

    for name, array in model.params.items():
        flat_index = int(draw() * array.size)
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


def reference_flatten_patches(images):
    rows = []
    for view in images:
        view = np.asarray(view, dtype=float)
        for i in range(0, IMAGE_SIZE, PATCH_SIZE):
            for j in range(0, IMAGE_SIZE, PATCH_SIZE):
                rows.append(view[i:i + PATCH_SIZE,
                                 j:j + PATCH_SIZE].reshape(-1))
    return np.stack(rows)


def _reference_encode(model, images, prior):
    patches = reference_flatten_patches(images)
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
    return {"patches": patches, "V2": V2, "Q": Q, "K": K, "Vv": Vv,
            "A": A, "C": C, "H": H, "F": F, "H2": H2, "L": L, "Ln": Ln,
            "Kd": Ln @ p["W_dk"], "Vd": Ln @ p["W_dv"]}


def _reference_decoder_step(model, Kd, Vd, token, position):
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


def reference_forward(model, images, prior, max_len=MAX_LEN):
    state = _reference_encode(model, images, prior)
    tokens = []
    token = BOS_TOKEN
    for position in range(max_len):
        step = _reference_decoder_step(model, state["Kd"], state["Vd"],
                                       token, position)
        token = int(np.argmax(step["logits"]))
        tokens.append(token)
        if token == EOS_TOKEN:
            break
    return ForwardResult(tokens=tokens, latent=state["L"],
                         latent_infused=state["Ln"])


def reference_teacher_forced_loss(model, images, prior):
    state = _reference_encode(model, images, prior)
    steps = [_reference_decoder_step(model, state["Kd"], state["Vd"], token,
                                     position)
             for position, token in enumerate(PROBE)]
    loss = math.fsum(float(step["logits"].sum()) for step in steps)
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
