"""Command-line entry points: label, eval, analyze, infuse-demo.

Exit codes: 0 on success, 1 for usage errors, 2 for data errors (the
message names the offending record id or line). Each command returns
its output files' texts, in write order, and its standard output;
:func:`run` alone checks that no target is a directory or in a missing
one, writes each file to a temporary file renamed into place, then
prints. A failed run leaves no file half-written and prints nothing; only
a write error after those checks (a full disk, a race) leaves files.

Each command imports the modules it runs when it runs, so ``infuse-demo``
loads no corpus code and ``label`` and ``eval`` load no numpy.

:func:`main`, the ``radpriors`` command and ``python -m radpriors.cli``,
ends the process with ``os._exit`` once standard output and standard
error are flushed. Every output file is closed and renamed before
:func:`run` returns, and the program starts no thread and registers no
``atexit`` handler, so the interpreter's teardown would only free
objects and finalize modules, which for numpy's takes longer than some
commands' own work (see the README's start-up notes). If standard
output cannot be flushed, :func:`main` reports it as :func:`run`
reports a failed write, and exits 2.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from collections.abc import Iterable
from contextlib import suppress
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from . import __version__
from ._io import (TEXT_FIELDS, DataError, atomic_write_text, check_target,
                  indented_json)

if TYPE_CHECKING:
    from .analysis import StratifiedSummary
    from .corpus import CorpusRecord
    from .labeler import LabelCounts, PriorLabel
    from .metrics import MetricReport
    from .rules import RuleSet

__all__ = ["main", "run", "pipeline_label_then_eval", "PipelineResult"]

# Options that name a file, with their argparse destinations.  No two of
# one invocation may resolve to the same file.
_FILE_OPTIONS = (("--in", "infile"), ("--out", "out"),
                 ("--summary", "summary"), ("--csv", "csv"),
                 ("--plot-data", "plot_data"))

_METRIC_NAMES = ("bleu1", "bleu2", "bleu3", "bleu4", "rouge_l", "cider")


def _with_labels(metrics: MetricReport,
                 labels: Iterable[int | None]) -> MetricReport:
    """``metrics`` with its per-report rows labeled in order."""
    return metrics._replace(per_report=[
        row._replace(label=label)
        for row, label in zip(metrics.per_report, labels)])


class PipelineResult(NamedTuple):
    """Everything the analyze pipeline produces in one pass."""

    metrics: MetricReport
    counts: LabelCounts
    labels: list[PriorLabel]
    summary: StratifiedSummary


def pipeline_label_then_eval(records: list[CorpusRecord],
                             rules: RuleSet | None = None,
                             metric: str = "bleu4",
                             bins: int = 20) -> PipelineResult:
    """Label candidates, score them, and stratify scores by label.

    This mirrors the analysis used to compare generated reports: the
    label comes from the candidate text, the score from candidate vs
    reference, and the summary groups scores by that label; each
    stratum's mean token length is that of its candidates.
    """
    from .analysis import ScoreRow, stratify
    from .labeler import label_corpus
    from .metrics import CIDER_SCALE, evaluate_corpus
    from .rules import default_rules

    if metric not in _METRIC_NAMES:
        raise ValueError(f"unknown metric {metric!r}")
    rules = rules or default_rules()
    labels, counts = label_corpus(records, rules, text_source="candidate")
    metrics = _with_labels(evaluate_corpus(records),
                           (label.value for label in labels))
    rows = [ScoreRow(score=row.to_dict()[metric], label=row.label,
                     length=row.candidate_length)
            for row in metrics.per_report]
    value_range = (0.0, CIDER_SCALE if metric.startswith("cider") else 1.0)
    summary = stratify(rows, bins=bins, value_range=value_range)
    return PipelineResult(metrics=metrics, counts=counts, labels=labels,
                          summary=summary)


def _load_ruleset(path: str | None) -> RuleSet:
    from .rules import default_rules, load_rules
    return load_rules(path) if path else default_rules()


def _label_jsonl(records: list[CorpusRecord],
                 labels: list[PriorLabel]) -> str:
    """One line per record: ``{"evidence": [{"rule", "sentence_index",
    "span"}, ...], "id", "label"}``, as ``json.dumps(..., sort_keys=True,
    ensure_ascii=False)`` writes it.

    The lines are formatted from that fixed shape; only the strings go
    through one encoder, and the integers are written as ``json`` writes
    them.
    """
    encode = json.JSONEncoder(ensure_ascii=False).encode
    lines = []
    for record, label in zip(records, labels):
        evidence = ", ".join(
            f'{{"rule": {encode(item.fired_rule)}, '
            f'"sentence_index": {item.mention.sentence_index}, '
            f'"span": [{item.match_span[0]}, {item.match_span[1]}]}}'
            for item in label.evidence)
        lines.append(f'{{"evidence": [{evidence}], "id": {encode(record.id)}, '
                     f'"label": {label.value}}}\n')
    return "".join(lines)


def _cmd_label(args: argparse.Namespace) -> tuple[dict, str]:
    from .corpus import load_corpus
    from .labeler import label_corpus

    records = load_corpus(args.infile, format=args.format)
    rules = _load_ruleset(args.rules)
    labels, counts = label_corpus(records, rules, text_source=args.label_on)
    summary = json.dumps(counts.to_dict(), sort_keys=True)
    files = {args.out: _label_jsonl(records, labels)}
    if args.summary:
        files[args.summary] = summary + "\n"
    return files, summary


def _per_report_csv(metrics: MetricReport) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["id", *_METRIC_NAMES, "label"])
    for row in metrics.per_report:
        values = row.to_dict()
        writer.writerow([row.id,
                         *(repr(values[name]) for name in _METRIC_NAMES),
                         values.get("label", "")])
    return buffer.getvalue()


def _cmd_eval(args: argparse.Namespace) -> tuple[dict, str]:
    from .corpus import load_corpus
    from .metrics import evaluate_corpus

    records = load_corpus(args.infile, format=args.format)
    metrics = evaluate_corpus(records)
    if args.gold_labels:
        metrics = _with_labels(metrics,
                               (record.gold_label for record in records))
    files = {args.out: indented_json(metrics.to_dict())}
    if args.csv:
        files[args.csv] = _per_report_csv(metrics)
    return files, json.dumps(metrics.corpus.to_dict(), sort_keys=True)


def _cmd_analyze(args: argparse.Namespace) -> tuple[dict, str]:
    from .analysis import emit_plot_data
    from .corpus import load_corpus

    records = load_corpus(args.infile, format=args.format)
    rules = _load_ruleset(args.rules)
    result = pipeline_label_then_eval(records, rules, metric=args.metric,
                                      bins=args.bins)
    negative = result.summary.negative
    positive = result.summary.positive
    positive_below = None
    if negative is not None and positive is not None:
        positive_below = bool(positive.mean < negative.mean)
    payload = {
        "metric": args.metric,
        "counts": result.counts.to_dict(),
        "stratified": result.summary.to_dict(),
        "corpus_metrics": result.metrics.corpus.to_dict(),
        "positive_mean_below_negative": positive_below,
    }
    files = {args.out: indented_json(payload)}
    if args.csv:
        files[args.csv] = _per_report_csv(result.metrics)
    if args.plot_data:
        files.update(emit_plot_data(result.summary, args.plot_data))
    return files, json.dumps({"counts": result.counts.to_dict(),
                              "positive_mean_below_negative": positive_below},
                             sort_keys=True)


def _cmd_infuse_demo(args: argparse.Namespace) -> tuple[dict, str]:
    from .infusion import ToyModel, demo_image_pair, forward, grad_check

    model = ToyModel(args.seed)
    images = demo_image_pair(args.seed)
    result = forward(model, images, prior=float(args.prior),
                     max_len=args.max_len)
    report = (grad_check(model, images, prior=float(args.prior))
              if args.grad_check else None)
    files = {}
    if args.emit_latents:
        files[args.emit_latents] = indented_json({
            "seed": args.seed,
            "prior": args.prior,
            "tokens": result.tokens,
            "latent": result.latent.tolist(),
            "latent_infused": result.latent_infused.tolist(),
        })
    printed = f"seed={args.seed} prior={args.prior} tokens={result.tokens}"
    if report is not None:
        printed += ("\ngrad-check max relative error: "
                    f"{report.max_rel_error:.3e}")
    return files, printed


def _int_at_least(low: int, what: str):
    """Argparse type: an integer of at least ``low``, called ``what``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value
    return parse


def _plot_data_path(text: str) -> str:
    """Argparse type: a path whose stats JSON can sit beside it."""
    from .analysis import plot_stats_path

    try:
        plot_stats_path(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must name a file, got {text!r}") from None
    return text


class _VersionAction(argparse.Action):
    """``--version``: the package and bundled-rules versions, then exit.

    The bundled rules are read only when the flag is given; unreadable
    rules print a warning and the rules version ``unknown``.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        from .rules import RuleFileError, default_rules

        rules_version = "unknown"
        try:
            rules_version = default_rules().version
        except (OSError, RuleFileError) as exc:
            print(f"warning: cannot read the bundled rules: {exc}",
                  file=sys.stderr)
        print(f"radpriors {__version__} (default rules {rules_version})")
        parser.exit()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radpriors",
        description="Label comparison-prior expressions in radiology "
                    "reports, score generated reports, and demo prior "
                    "infusion.")
    parser.add_argument("--version", action=_VersionAction, nargs=0,
                        default=argparse.SUPPRESS,
                        help="show program's version number and exit")
    commands = parser.add_subparsers(dest="command", required=True)

    def add_io(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--in", dest="infile", required=True,
                         help="input corpus file")
        sub.add_argument("--out", required=True, help="output file")
        sub.add_argument("--format", choices=("jsonl", "csv"),
                         default="jsonl", help="corpus file format")

    label = commands.add_parser(
        "label", help="label each report for comparison-prior expressions")
    add_io(label)
    label.add_argument("--rules", help="rules file overriding the bundled set")
    label.add_argument("--label-on", choices=TEXT_FIELDS,
                       default="text", help="which field to label")
    label.add_argument("--summary", help="also write the counts JSON here")
    label.set_defaults(func=_cmd_label)

    evaluate = commands.add_parser(
        "eval", help="score candidates against references")
    add_io(evaluate)
    evaluate.add_argument("--csv", help="also write per-report scores as CSV")
    evaluate.add_argument("--gold-labels", action="store_true",
                          help="copy gold labels into the per-report rows")
    evaluate.set_defaults(func=_cmd_eval)

    analyze = commands.add_parser(
        "analyze", help="label candidates, score them, stratify by label")
    add_io(analyze)
    analyze.add_argument("--rules", help="rules file overriding the bundled set")
    analyze.add_argument("--metric", choices=_METRIC_NAMES, default="bleu4",
                         help="metric to stratify")
    analyze.add_argument("--bins", type=_int_at_least(1, "a positive integer"),
                         default=20, help="histogram bin count")
    analyze.add_argument("--csv", help="also write per-report scores as CSV")
    analyze.add_argument("--plot-data", type=_plot_data_path,
                         help="write histogram CSV here (stats JSON beside it)")
    analyze.set_defaults(func=_cmd_analyze)

    demo = commands.add_parser(
        "infuse-demo", help="run the prior-infused toy decoder")
    demo.add_argument("--seed", default=17,
                      type=_int_at_least(0, "a non-negative integer"))
    demo.add_argument("--prior", type=int, choices=(0, 1), default=1)
    demo.add_argument("--max-len", type=int, default=None)
    demo.add_argument("--emit-latents", help="write latent matrices as JSON")
    demo.add_argument("--grad-check", action="store_true",
                      help="also compare analytic and numeric gradients")
    demo.set_defaults(func=_cmd_infuse_demo)
    return parser


def _file_clash(args: argparse.Namespace) -> str | None:
    """Name two file options of ``args`` that resolve to one file, if any.

    Writing both would keep only the last write, or replace the input.
    """
    files = [(option, getattr(args, dest, None))
             for option, dest in _FILE_OPTIONS]
    if getattr(args, "plot_data", None):
        from .analysis import plot_stats_path
        files.append(("the stats JSON of --plot-data",
                      plot_stats_path(args.plot_data)))
    seen: dict[Path, str] = {}
    for option, path in files:
        if not path:
            continue
        resolved = Path(path).resolve()
        if resolved in seen:
            return f"{seen[resolved]} and {option} name the same file: {path}"
        seen[resolved] = option
    return None


def run(argv: list[str] | None = None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        clash = _file_clash(args)
        if clash:
            parser.error(clash)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        files, printed = args.func(args)
        for path in files:
            check_target(path)
        for path, text in files.items():
            atomic_write_text(path, text)
        print(printed)
    except (DataError, OSError) as exc:
        with suppress(OSError):
            print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    """Run the command line on ``sys.argv`` and end the process."""
    code = run()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except OSError as exc:
        # As run() reports a failed write; a lost stderr leaves the code.
        code = 2
        with suppress(OSError):
            print(f"error: {exc}", file=sys.stderr, flush=True)
    os._exit(code)


if __name__ == "__main__":  # pragma: no cover
    main()
