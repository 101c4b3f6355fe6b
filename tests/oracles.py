"""Plain reference implementations the labeling fast paths are held to.

``reference_split_sentences`` is the character loop that found sentence
boundaries before one regex did.  ``reference_make_report`` and
``reference_label`` are the per-record chain that ``label_corpus`` ran on
every record before it skipped findings sections holding no keyword
surface: findings, sentences by the loop, tokens, then every labeler
stage.
"""

from radpriors.corpus import Report, _guarded_period, extract_findings, tokenize
from radpriors.labeler import label_report


def reference_split_sentences(text):
    sentences = []
    start = 0
    n = len(text)
    for i, ch in enumerate(text):
        if ch not in ".!?":
            continue
        if i + 1 < n and not text[i + 1].isspace():
            continue
        if ch == "." and _guarded_period(text, i):
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


def reference_label(report_id, raw_text, rules):
    return label_report(reference_make_report(report_id, raw_text), rules)


def reference_label_corpus(records, rules, text_source="text"):
    return [reference_label(record.id, getattr(record, text_source), rules)
            for record in records]
