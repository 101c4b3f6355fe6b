"""Detect comparison-prior expressions in radiology reports.

The package labels free-text reports for references to earlier imaging,
scores generated reports against references, stratifies those scores by
label, and demonstrates infusing the binary prior into a toy
encoder-decoder.

Importing the package loads none of its modules: each exported name is
imported from its module on first access (PEP 562), so a command pays
only for the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# Exported name -> the module that defines it.
_HOMES = {
    **dict.fromkeys(
        ("CorpusError", "CorpusRecord", "Report", "extract_findings",
         "load_corpus", "make_report", "split_sentences", "tokenize"),
        "corpus"),
    **dict.fromkeys(
        ("ClassifiedMention", "LabelCounts", "Mention", "PriorLabel",
         "Verdict", "aggregate", "classify_mentions", "extract_mentions",
         "label_corpus", "label_report"),
        "labeler"),
    **dict.fromkeys(
        ("CorpusScores", "EvaluationError", "MetricReport", "ReportScores",
         "bleu", "cider", "evaluate_corpus", "rouge_l"),
        "metrics"),
    **dict.fromkeys(
        ("RuleFileError", "RuleSet", "default_rules", "load_rules"),
        "rules"),
}

__all__ = ["__version__", *_HOMES]


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(__all__)
