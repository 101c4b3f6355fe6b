"""Detect comparison-prior expressions in radiology reports.

The package labels free-text reports for references to earlier imaging,
scores generated reports against references, stratifies those scores by
label, and demonstrates infusing the binary prior into a toy
encoder-decoder.
"""

from .corpus import (CorpusError, CorpusRecord, Report, extract_findings,
                     load_corpus, make_report, split_sentences, tokenize)
from .labeler import (ClassifiedMention, LabelCounts, Mention, PriorLabel,
                      Verdict, aggregate, classify_mentions, extract_mentions,
                      label_corpus, label_report)
from .metrics import (CorpusScores, EvaluationError, MetricReport,
                      ReportScores, bleu, cider, evaluate_corpus, rouge_l)
from .rules import RuleFileError, RuleSet, default_rules, load_rules

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "CorpusError", "CorpusRecord", "Report", "extract_findings",
    "load_corpus", "make_report", "split_sentences", "tokenize",
    "ClassifiedMention", "LabelCounts", "Mention", "PriorLabel", "Verdict",
    "aggregate", "classify_mentions", "extract_mentions", "label_corpus",
    "label_report",
    "CorpusScores", "EvaluationError", "MetricReport", "ReportScores",
    "bleu", "cider", "evaluate_corpus", "rouge_l",
    "RuleFileError", "RuleSet", "default_rules", "load_rules",
]
