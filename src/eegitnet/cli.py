"""Command line entry points.

Subcommands:

* ``synth``   generate a synthetic labeled cohort file from a spec
* ``train``   run an evaluation scenario over a directory of subjects
* ``explain`` export the filter atlas (spectra, patterns, SVG) of a model
* ``plan``    smallest causal kernel reaching a target receptive field
* ``stats``   compare two accuracy tables with a paired one-sided test

Configuration files are flat ``key=value`` text: the training config uses
``train.`` and ``arch.`` prefixes, the synthesis spec uses plain keys plus
``classK.sourceJ.field`` entries.  Unknown keys are hard errors; flags
override file values; the effective configuration is echoed into the
output directory.

Exit codes: 0 success, 2 usage or configuration error, 3 data or format
error, 4 runtime failure.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

from .data import SourceSpec, SynthSpec, load_epochs, save_epochs, synth_generate
from .errors import FormatError
from .explain import build_atlas, export_atlas
from .fileio import (atomic_write, config_items, key_value_text, parse_config_items,
                     read_key_values, read_text_lines)
from .model import (ArchConfig, load_model, plan_kernel, receptive_field_blocks,
                    save_model)
from .stats import paired_t_right, wilcoxon_one_sided
from .training import (SCENARIOS, TrainConfig, check_subject_name, default_train_config,
                       history_csv_text, report_csv_text, run_scenario, summary_text)

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4

_SCENARIO_FLAGS = {"within": "within", "cross": "cross", "cross-ft": "cross_finetuned"}

_DATA_DERIVED_ARCH = ("n_channels", "n_samples", "n_classes")


class CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _read_kv(path):
    try:
        return read_key_values(path)
    except OSError as exc:
        raise CliError(EXIT_USAGE, f"cannot read config {path}: {exc}") from None
    except ValueError as exc:
        raise CliError(EXIT_USAGE, str(exc)) from None


# ----------------------------------------------------------------------
# synth

_SOURCE_KEY = re.compile(r"^class(\d+)\.source(\d+)\.([^.]+)$")

def _parse_synth_spec(items):
    scalars = {}
    per_source = {}
    for key, raw in items.items():
        m = _SOURCE_KEY.match(key)
        if m:
            cls, src, fieldname = int(m.group(1)), int(m.group(2)), m.group(3)
            per_source.setdefault((cls, src), {})[fieldname] = raw
        else:
            scalars[key] = raw
    try:
        scalars = parse_config_items(SynthSpec, scalars, "synth", skip=("sources",))
    except ValueError as exc:
        raise CliError(EXIT_USAGE, str(exc)) from None
    n_classes = scalars["n_classes"]
    sources = []
    for cls in range(n_classes):
        src_ids = sorted(s for (c, s) in per_source if c == cls)
        if not src_ids:
            raise CliError(EXIT_USAGE, f"class {cls} has no sources")
        if src_ids != list(range(len(src_ids))):
            raise CliError(EXIT_USAGE, f"class {cls} source indices must be 0..{len(src_ids) - 1}")
        cls_sources = []
        for s in src_ids:
            try:
                values = parse_config_items(SourceSpec, per_source.pop((cls, s)), "source")
                cls_sources.append(SourceSpec(**values))
            except ValueError as exc:
                raise CliError(EXIT_USAGE, f"class{cls}.source{s}: {exc}") from None
        sources.append(cls_sources)
    if per_source:
        extra = ", ".join(f"class{c}.source{s}" for c, s in sorted(per_source))
        raise CliError(EXIT_USAGE, f"sources outside class range: {extra}")
    try:
        return SynthSpec(sources=sources, **scalars)
    except ValueError as exc:
        raise CliError(EXIT_USAGE, f"invalid synth spec: {exc}") from None


def cmd_synth(args):
    spec = _parse_synth_spec(_read_kv(args.spec))
    try:
        epochs = synth_generate(spec)
    except ValueError as exc:
        raise CliError(EXIT_USAGE, f"invalid synth spec: {exc}") from None
    try:
        save_epochs(epochs, args.out)
    except ValueError as exc:
        raise CliError(EXIT_USAGE, f"invalid synth spec: {exc}") from None
    except OSError as exc:
        raise CliError(EXIT_DATA, f"cannot write {args.out}: {exc}") from None
    print(f"wrote {args.out}: {epochs.n_trials} trials, {epochs.n_channels} channels, "
          f"{epochs.n_samples} samples, {epochs.n_classes} classes, fs={epochs.fs:g} Hz")
    return 0


# ----------------------------------------------------------------------
# train

def _scan_subjects(data_dir):
    try:
        names = sorted(os.listdir(data_dir))
    except OSError as exc:
        raise CliError(EXIT_DATA, f"cannot list {data_dir}: {exc}") from None
    stems = {part: {n[:-len(f".{part}.eegepoch")] for n in names
                    if n.endswith(f".{part}.eegepoch")} for part in ("train", "test")}
    if not stems["train"]:
        raise CliError(EXIT_DATA, f"no *.train.eegepoch files in {data_dir}")
    for part, other in (("train", "test"), ("test", "train")):
        orphans = sorted(stems[part] - stems[other])
        if orphans:
            raise CliError(EXIT_DATA, f"{orphans[0]}.{part}.eegepoch has no matching "
                                      f"{orphans[0]}.{other}.eegepoch")
    for stem in sorted(stems["train"]):
        try:
            check_subject_name(stem, repr(os.path.join(data_dir, stem + ".train.eegepoch")))
        except ValueError as exc:
            raise CliError(EXIT_DATA, str(exc)) from None
    pairs = []
    for stem in sorted(stems["train"]):
        train_path = os.path.join(data_dir, stem + ".train.eegepoch")
        test_path = os.path.join(data_dir, stem + ".test.eegepoch")
        try:
            pairs.append((stem, load_epochs(train_path), load_epochs(test_path)))
        except FormatError as exc:
            raise CliError(EXIT_DATA, f"bad epoch file for subject {stem}: {exc}") from None
        except OSError as exc:
            raise CliError(EXIT_DATA, f"cannot read {exc.filename}: {exc}") from None
    return pairs


def _split_train_config(items, path):
    train_items, arch_items = {}, {}
    for key, value in items.items():
        prefix, _, rest = key.partition(".")
        if prefix == "train" and rest:
            train_items[rest] = value
        elif prefix == "arch" and rest:
            arch_items[rest] = value
        else:
            raise CliError(EXIT_USAGE,
                           f"{path}: keys must start with train. or arch., got {key!r}")
    derived = sorted(set(arch_items) & set(_DATA_DERIVED_ARCH))
    if derived:
        raise CliError(EXIT_USAGE,
                       f"{path}: {', '.join(derived)} are derived from the data; "
                       "remove them from the config")
    try:
        return (parse_config_items(TrainConfig, train_items, "train"),
                parse_config_items(ArchConfig, arch_items, "architecture", skip=_DATA_DERIVED_ARCH))
    except ValueError as exc:
        raise CliError(EXIT_USAGE, f"{path}: {exc}") from None


def cmd_train(args):
    if args.jobs < 1:
        raise CliError(EXIT_USAGE, "--jobs must be >= 1")
    scenario = _SCENARIO_FLAGS[args.scenario]
    train_overrides, arch_overrides = ({}, {})
    if args.config:
        train_overrides, arch_overrides = _split_train_config(_read_kv(args.config), args.config)
    if args.seed is not None:
        train_overrides["seed"] = args.seed
    try:
        train_config = default_train_config(scenario, **train_overrides)
    except ValueError as exc:
        raise CliError(EXIT_USAGE, f"bad training config: {exc}") from None

    pairs = _scan_subjects(args.data)
    names = [stem for stem, _, _ in pairs]
    subjects = [(train, test) for _, train, test in pairs]
    try:
        arch = ArchConfig(**{**SCENARIOS[scenario]["arch"], **arch_overrides,
                             **{f: getattr(subjects[0][0], f) for f in _DATA_DERIVED_ARCH}})
    except ValueError as exc:
        raise CliError(EXIT_USAGE, f"bad architecture config: {exc}") from None

    effective = {**config_items(train_config, "train."), **config_items(arch, "arch.")}
    try:
        os.makedirs(args.out, exist_ok=True)
        atomic_write(os.path.join(args.out, "config.effective"),
                     key_value_text(effective).encode("utf-8"))
    except OSError as exc:
        raise CliError(EXIT_DATA, f"cannot write {args.out}: {exc}") from None
    try:
        report = run_scenario(scenario, subjects, arch, train_config,
                              names=names, jobs=args.jobs)
    except ValueError as exc:
        raise CliError(EXIT_DATA, f"scenario failed: {exc}") from None

    try:
        atomic_write(os.path.join(args.out, "table.csv"),
                     report_csv_text(report).encode("utf-8"))
        atomic_write(os.path.join(args.out, "summary.txt"),
                     summary_text(report).encode("utf-8"))
        for r in report.subjects:
            atomic_write(os.path.join(args.out, f"history_{r.subject}.csv"),
                         history_csv_text(r.history).encode("utf-8"))
            if r.pretrain_history:
                atomic_write(os.path.join(args.out, f"history_{r.subject}_pretrain.csv"),
                             history_csv_text(r.pretrain_history).encode("utf-8"))
            save_model(r.model, os.path.join(args.out, f"model_{r.subject}.itnetmdl"))
    except OSError as exc:
        raise CliError(EXIT_DATA, f"cannot write {args.out}: {exc}") from None
    for r in report.subjects:
        print(json.dumps({"subject": r.subject, "scenario": r.scenario,
                          "accuracy": r.accuracy}))
    print(json.dumps({"scenario": report.scenario, "mean_accuracy": report.mean,
                      "std_accuracy": report.std}))
    return 0


# ----------------------------------------------------------------------
# explain

def cmd_explain(args):
    if not (math.isfinite(args.fs) and args.fs > 0):
        raise CliError(EXIT_USAGE, f"--fs must be a finite positive number, got {args.fs:g}")
    try:
        model = load_model(args.model)
    except OSError as exc:
        raise CliError(EXIT_DATA, f"cannot read {args.model}: {exc}") from None
    except FormatError as exc:
        raise CliError(EXIT_DATA, f"bad model file: {exc}") from None
    try:
        atlas = build_atlas(model, fs=args.fs, savgol_half_width=args.savgol_l,
                            savgol_order=args.savgol_p, pad_to=args.pad_to)
    except ValueError as exc:
        raise CliError(EXIT_USAGE, str(exc)) from None
    try:
        paths = export_atlas(atlas, args.out)
    except OSError as exc:
        raise CliError(EXIT_DATA, f"cannot write {args.out}: {exc}") from None
    spectra = sum(os.path.basename(p).startswith("spectrum") for p in paths)
    patterns = sum(os.path.basename(p).startswith("pattern") for p in paths)
    print(f"wrote {spectra} spectrum CSVs, {patterns} pattern CSVs and atlas.svg "
          f"to {args.out} (spectra valid below {atlas.nyquist_hz:g} Hz)")
    return 0


# ----------------------------------------------------------------------
# plan

def cmd_plan(args):
    try:
        t = plan_kernel(args.target_r, args.layers_per_block, args.dilation_base,
                        args.blocks)
        reach = receptive_field_blocks(args.layers_per_block, t, args.dilation_base,
                                       args.blocks)
    except ValueError as exc:
        raise CliError(EXIT_USAGE, str(exc)) from None
    print(f"kernel_extent={t}")
    print(f"receptive_field={reach}")
    return 0


# ----------------------------------------------------------------------
# stats

def _read_accuracy_table(path):
    try:
        lines = list(read_text_lines(path))   # (line number, text) of the non-blank lines
    except OSError as exc:
        raise CliError(EXIT_DATA, f"cannot read table {path}: {exc}") from None
    except ValueError as exc:
        raise CliError(EXIT_DATA, str(exc)) from None
    if not lines:
        raise CliError(EXIT_DATA, f"{path}: empty table")
    header = lines[0][1].split(",")
    try:
        subject_col = header.index("subject")
        acc_col = header.index("accuracy")
    except ValueError:
        raise CliError(EXIT_DATA,
                       f"{path}: header must contain subject and accuracy columns") from None
    rows = {}
    for ln, line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise CliError(EXIT_DATA, f"{path}:{ln}: expected {len(header)} cells")
        subject = cells[subject_col]
        if subject in rows:
            raise CliError(EXIT_DATA, f"{path}:{ln}: duplicate subject {subject!r}")
        try:
            rows[subject] = float(cells[acc_col])
        except ValueError:
            rows[subject] = math.nan
        if not math.isfinite(rows[subject]):
            raise CliError(EXIT_DATA, f"{path}:{ln}: bad accuracy {cells[acc_col]!r}")
    return rows


_STATS_TESTS = {"wilcoxon": (wilcoxon_one_sided, "n_effective"),
                "ttest": (paired_t_right, "df")}


def cmd_stats(args):
    table_a = _read_accuracy_table(args.table)
    table_b = _read_accuracy_table(args.vs)
    if set(table_a) != set(table_b):
        only_a = sorted(set(table_a) - set(table_b))
        only_b = sorted(set(table_b) - set(table_a))
        raise CliError(EXIT_DATA, "tables cover different subjects"
                       + (f"; only in {args.table}: {', '.join(only_a)}" if only_a else "")
                       + (f"; only in {args.vs}: {', '.join(only_b)}" if only_b else ""))
    subjects = sorted(table_a)
    a = [table_a[s] for s in subjects]
    b = [table_b[s] for s in subjects]
    test, detail = _STATS_TESTS[args.test]
    try:
        res = test(a, b)
    except ValueError as exc:
        raise CliError(EXIT_DATA, str(exc)) from None
    print(key_value_text({"test": test.__name__, "n_pairs": len(a),
                          detail: getattr(res, detail), "statistic": res.statistic,
                          "p_value": res.p_value,
                          "significant_at_0.05": "yes" if res.p_value < 0.05 else "no"}),
          end="")
    return 0


# ----------------------------------------------------------------------
# parser

def build_parser():
    parser = argparse.ArgumentParser(
        prog="eegitnet",
        description="Inception temporal convolutional network for EEG epochs",
        epilog="exit codes: 0 success, 2 usage/config error, 3 data/format error, "
               "4 runtime failure")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic cohort file")
    p.add_argument("--spec", required=True, help="key=value synthesis spec")
    p.add_argument("--out", required=True, help="output .eegepoch path")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train and evaluate one scenario")
    p.add_argument("--scenario", required=True, choices=sorted(_SCENARIO_FLAGS))
    p.add_argument("--data", required=True,
                   help="directory of <subject>.train.eegepoch / <subject>.test.eegepoch")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", help="key=value file with train. and arch. keys")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel subject workers (>= 1, at most one per subject)")
    p.add_argument("--seed", type=int, help="override train.seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("explain", help="export a trained model's filter atlas")
    p.add_argument("--model", required=True, help=".itnetmdl path")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--fs", type=float, required=True, help="sampling rate in Hz")
    p.add_argument("--pad-to", type=int, default=512, help="DFT length (default 512, at most 65536)")
    p.add_argument("--savgol-l", type=int, default=5,
                   help="smoothing window half-width (default 5)")
    p.add_argument("--savgol-p", type=int, default=3,
                   help="smoothing polynomial order (default 3)")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("plan", help="smallest kernel reaching a receptive field")
    p.add_argument("--target-r", type=int, required=True)
    p.add_argument("--layers-per-block", type=int, default=2)
    p.add_argument("--dilation-base", type=int, default=2)
    p.add_argument("--blocks", type=int, default=4)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("stats", help="paired one-sided comparison of two tables")
    p.add_argument("--table", required=True, help="accuracy table (claimed better)")
    p.add_argument("--vs", required=True, help="accuracy table to compare against")
    p.add_argument("--test", required=True, choices=["wilcoxon", "ttest"])
    p.set_defaults(func=cmd_stats)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not raises
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
