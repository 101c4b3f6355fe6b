"""Seeded workload generator for the radpriors benchmark.

Every corpus is built from a fixed phrase bank with a private
``random.Random``, so one seed always gives byte-identical files.  Each
file is written beside a ``truth.json`` that records what the generator
planted: the label of every record, and which pairs were made identical
or vocabulary-disjoint.  The CLI under test only ever sees the corpus
files.

Planted labels follow the bundled rules' semantics:

* a *prior* sentence carries one comparison phrase ("compared to prior
  examination"), sits in a sentence of its own and is built only from
  words that open no negation scope, so it must label 1;
* a *negated* sentence ("No prior study for review.") must label 0;
* a *bare change* sentence ("Increased patchy opacity ...") names a change
  verb with no comparative marker, so it must label 0;
* the phrase bank holds no keyword of the rules, so filler labels 0.

Run ``python3 bench/gen.py --seed 3 --out DIR`` to write every workload.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
from pathlib import Path

WORKLOADS = ("label-reports", "eval-pairs", "analyze-long", "infuse-demo")

# Records per CLI invocation.  Each size makes one invocation take about
# a second on a 2-CPU machine, so start-up is a minority of its wall time.
SIZES = {"label-reports": 6000, "eval-pairs": 500, "analyze-long": 100}

# infuse-demo decodes each (seed, prior) in turn; the list is fixed so
# that every run covers the same work.
INFUSE_SEEDS = (3, 17, 29, 41, 53, 67, 79, 97)

# Report-style phrases.  None holds a keyword of the bundled rules (no
# "prior", "again", "interval", and no increase/decrease/enlarge/unchang/
# worsen/improv stems), nor "from", "since", "compared" or "comparing",
# which would turn a bare change verb into a comparison.
PHRASES = tuple(line.strip() for line in """
the lungs are clear
lungs are clear bilaterally
the lungs are well expanded
heart size is normal
heart size within normal limits
the cardiac silhouette is normal in size
cardiomediastinal silhouette is within normal limits
the mediastinal contours are normal
normal mediastinal and hilar contours
the hilar contours are unremarkable
no focal consolidation
no focal airspace disease
no pleural effusion
no pneumothorax
no pleural effusion or pneumothorax
there is no acute osseous abnormality
bony structures are intact
osseous structures are grossly intact
mild degenerative changes of the thoracic spine
degenerative changes are present in the spine
multilevel thoracic spondylosis
there is mild patchy opacity
patchy opacity at the right base
streaky opacity at the left base
bibasilar atelectasis is present
minimal subsegmental atelectasis
linear scarring in the lingula
mild interstitial prominence
low lung volumes
lung volumes are low
there is mild cardiomegaly
the heart is mildly prominent
the aorta is tortuous
calcified aortic knob
atherosclerotic calcification of the aorta
small left pleural effusion
trace right pleural effusion
blunting of the costophrenic angle
small calcified granuloma
calcified granuloma in the right upper lobe
nodular opacity in the left upper lobe
the right hemidiaphragm is elevated
elevated left hemidiaphragm
the visualized upper abdomen is unremarkable
surgical clips in the upper abdomen
sternotomy wires are intact
median sternotomy wires
a dual lead pacemaker is present
pacemaker leads terminate in the right ventricle
right internal jugular catheter
catheter tip at the cavoatrial junction
the endotracheal tube is well positioned
the enteric tube courses below the diaphragm
there is pulmonary vascular congestion
mild pulmonary edema
perihilar haziness
hyperinflation of the lungs
flattened hemidiaphragms
emphysematous changes
biapical pleural thickening
apical scarring
the trachea is midline
soft tissues are unremarkable
no acute cardiopulmonary process
no acute cardiopulmonary abnormality
no evidence of pneumonia
no radiographic evidence of active disease
chronic changes without acute findings
mild right basilar opacity
left lower lobe consolidation
right middle lobe opacity
possible early infiltrate
findings may represent atelectasis or pneumonia
clinical correlation is advised
follow up radiograph in six weeks
limited by patient rotation
portable upright view
frontal and lateral views of the chest
single frontal view of the chest
there is a rounded density
density projects over the left hilum
overlying monitoring leads
skin folds project over the right chest
the osseous thorax is intact
old healed rib fractures
healed left rib fractures
shoulder arthroplasty on the right
there is dextroscoliosis
mild thoracic kyphosis
cervical fusion hardware
the costophrenic angles are sharp
no free air under the diaphragm
the pulmonary vasculature is normal
stable appearing nodule
nonspecific small nodule
vague opacity in the left midlung
airspace disease at both bases
hazy opacity overlying the heart
""".strip().splitlines())

# Words that open a negation scope in the bundled rules; a prior
# sentence must not hold any of them.
NEGATION_WORDS = frozenset("""
no not without absence lack lacking unavailable recommend recommends
recommended suggest suggests suggested requested advised helpful
beneficial needed
""".split())

SAFE_PHRASES = tuple(phrase for phrase in PHRASES
                     if not NEGATION_WORDS & set(phrase.split()))

PRIOR_PHRASES = (
    "compared to prior examination",
    "again noted",
    "in the interval",
    "unchanged from previous exam",
    "similar to the previous study",
    "stable since prior radiograph",
    "as on preceding radiograph",
    "redemonstrated compared with previous film",
)

NEGATED_SENTENCES = (
    "No prior study for review.",
    "No prior examinations available.",
    "Prior films not available.",
    "Without prior images.",
    "No comparison studies.",
)

CHANGE_VERBS = ("increased", "decreased", "enlarged", "worsening",
                "improving", "unchanged")

# Impressions lie outside the findings section, which alone is labeled,
# so one that names a prior must not change the record's label.
IMPRESSIONS = (
    "No acute cardiopulmonary process.",
    "No acute cardiopulmonary abnormality.",
    "Stable compared to prior examination.",
    "Findings as above.",
)

_PHRASE_VOCAB = sorted({word for phrase in PHRASES for word in phrase.split()})


def _sentence(words: str) -> str:
    return words[:1].upper() + words[1:] + "."


def _filler(rng: random.Random, min_tokens: int) -> str:
    parts: list[str] = []
    count = 0
    while count < min_tokens:
        phrase = rng.choice(PHRASES)
        parts.append(phrase)
        count += len(phrase.split())
    return " ".join(parts)


def _planted(rng: random.Random, kind: str, min_tokens: int) -> str:
    if kind == "prior":
        return _sentence(rng.choice(SAFE_PHRASES) + " "
                         + rng.choice(PRIOR_PHRASES))
    if kind == "negated":
        return rng.choice(NEGATED_SENTENCES)
    if kind == "bare":
        return _sentence(rng.choice(CHANGE_VERBS) + " " + rng.choice(PHRASES))
    return _sentence(_filler(rng, min_tokens))


def _sentences(rng: random.Random, count: int,
               min_tokens: int) -> list[tuple[str, str]]:
    """``count`` (kind, sentence) pairs; about a third plant a prior."""
    kinds = ["filler"] * count
    if rng.random() < 1 / 3:
        kinds[rng.randrange(count)] = "prior"
    if rng.random() < 0.2:
        kinds[rng.randrange(count)] = "negated"
    if rng.random() < 0.2:
        kinds[rng.randrange(count)] = "bare"
    return [(kind, _planted(rng, kind, min_tokens)) for kind in kinds]


def _join(sentences: list[tuple[str, str]]) -> str:
    return " ".join(text for _, text in sentences)


def _label(sentences: list[tuple[str, str]]) -> int:
    return int(any(kind == "prior" for kind, _ in sentences))


def _disjoint(rng: random.Random, reference: str, tokens: int) -> str:
    """A candidate that shares no token with ``reference``."""
    used = {word.strip(".").lower() for word in reference.split()}
    pool = [word for word in _PHRASE_VOCAB if word not in used]
    words = [rng.choice(pool) for _ in range(tokens)]
    return " ".join(_sentence(" ".join(words[i:i + 10]))
                    for i in range(0, tokens, 10))


def _pair(rng: random.Random, index: int, sentence_count: int,
          min_tokens: int) -> dict:
    """One reference/candidate pair with the candidate's planted label.

    Every 40th pair (from the 8th) is identical, and every 40th (from the
    24th) is vocabulary-disjoint, so exact scores can be checked.
    """
    reference = _sentences(rng, sentence_count, min_tokens)
    kind = ("identical" if index % 40 == 7
            else "disjoint" if index % 40 == 23 else "paired")
    if kind == "identical":
        candidate = list(reference)
    elif kind == "disjoint":
        text = _disjoint(rng, _join(reference), sentence_count * min_tokens)
        candidate = [("filler", text)]
    else:
        candidate = []
        for item in reference:
            roll = rng.random()
            if roll < 0.6:
                candidate.append(item)
            elif roll < 0.9:
                candidate.append(("filler", _sentence(_filler(rng, min_tokens))))
        candidate.extend(_sentences(rng, max(1, sentence_count - len(candidate)),
                                    min_tokens))
    return {"id": f"p{index:06d}", "reference": _join(reference),
            "candidate": _join(candidate), "label": _label(candidate),
            "kind": kind}


def _report(rng: random.Random, index: int) -> dict:
    findings = _sentences(rng, rng.randint(4, 6), 9)
    text = ("FINDINGS: " + _join(findings)
            + " IMPRESSION: " + rng.choice(IMPRESSIONS))
    return {"id": f"r{index:06d}", "text": text, "label": _label(findings)}


def _jsonl(rows: list[dict]) -> str:
    return "".join(json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n"
                   for row in rows)


def _csv(rows: list[dict]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["id", "text", "reference", "candidate"])
    for row in rows:
        writer.writerow([row["id"], row["text"], row["reference"],
                         row["candidate"]])
    return buffer.getvalue()


def _corpus_rows(workload: str, rng: random.Random, count: int) -> list[dict]:
    if workload == "label-reports":
        return [_report(rng, i) for i in range(count)]
    sentence_count, min_tokens = ((4, 9) if workload == "eval-pairs"
                                  else (15, 10))
    rows = [_pair(rng, i, sentence_count, min_tokens) for i in range(count)]
    for row in rows:
        row["text"] = row["reference"]
    return rows


def generate(workload: str, seed: int, out_dir: Path,
             count: int | None = None) -> dict:
    """Write ``workload``'s input files into ``out_dir``; return the truth.

    The truth maps ``ids`` (input order), ``labels``, ``identical`` and
    ``disjoint`` ids, and names the corpus file (``input``) and the
    one-record file (``one``) used to time start-up.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"radpriors-bench:{workload}:{seed}")
    if workload == "infuse-demo":
        truth = {"decodes": [[s, p] for s in INFUSE_SEEDS for p in (0, 1)]}
    else:
        rows = _corpus_rows(workload, rng, count or SIZES[workload])
        suffix = "csv" if workload == "eval-pairs" else "jsonl"
        writer = _csv if suffix == "csv" else _jsonl
        public = [{key: row[key] for key in
                   (("id", "text") if workload == "label-reports"
                    else ("id", "text", "reference", "candidate"))}
                  for row in rows]
        (out_dir / f"input.{suffix}").write_text(writer(public), "utf-8")
        (out_dir / f"one.{suffix}").write_text(writer(public[:1]), "utf-8")
        truth = {
            "input": f"input.{suffix}",
            "one": f"one.{suffix}",
            "ids": [row["id"] for row in rows],
            "labels": [row["label"] for row in rows],
            "identical": [row["id"] for row in rows
                          if row.get("kind") == "identical"],
            "disjoint": [row["id"] for row in rows
                         if row.get("kind") == "disjoint"],
        }
    (out_dir / "truth.json").write_text(
        json.dumps(truth, sort_keys=True) + "\n", "utf-8")
    return truth


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    for workload in WORKLOADS:
        generate(workload, args.seed, args.out / workload)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
