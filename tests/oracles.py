"""Plain reference implementations the fast paths are held to.

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

import random
from itertools import repeat

import numpy as np

from radpriors.corpus import Report, extract_findings, tokenize
from radpriors.infusion import GradCheckReport, _rel_error, teacher_forced_loss
from radpriors.labeler import (ClassifiedMention, Mention, PriorLabel,
                               Verdict)
from radpriors.metrics import _cosine
from radpriors.rules import _Gap


ABBREVIATIONS = {"dr", "mr", "mrs", "ms", "vs", "a.m", "p.m", "e.g", "i.e"}


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
    sentences = reference_split_sentences(extract_findings(raw_text))
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
