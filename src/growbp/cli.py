"""Command-line experiment runner.

``growbp train`` executes constructive training over a sweep of seeds and
writes growth tables plus a per-seed summary; ``growbp inspect`` validates
a dataset file; ``growbp render`` reformats stored results.  Every run
records its fully resolved configuration, and result files depend only on
the dataset bytes and that configuration, so reruns are byte-identical.
``--jobs`` runs seeds on threads that share one in-memory dataset.
"""

import argparse
import contextlib
import dataclasses
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import trainer
from .dataset import (json_object, load_dataset, load_raw_csv, naming,
                      numbered_lines, read_text, write_text)
from .errors import ConfigError, GrowbpError
from .profiles import (
    BUNDLED,
    EXPECTED_HEADERS,
    PRESETS,
    bundled_dataset_path,
    match_profile,
)
from .trainer import (
    STOP_ACCEPTED,
    GrowthHistory,
    PhaseRecord,
    TrainConfig,
    check_fields,
    check_seed,
    constructive_train,
    phase_fault,
)

DATASET_KINDS = ("proben1", "raw-csv")
# train writes only what render reads back; render also prints markdown.
OUTPUT_FORMATS = ("csv", "json-lines")
TABLE_FORMATS = ("csv", "markdown", "json-lines")

# Each TrainConfig field is a train flag and a config key of the same name;
# seed comes from the sweep.
TRAIN_OPTIONS = tuple(
    f for f in dataclasses.fields(TrainConfig) if f.name != "seed"
)

# For each PhaseRecord field in order: the CSV name, the markdown heading
# and the markdown format.  A CSV row ends with the 0/1 ``best`` flag.
_COLUMNS = (
    ("h", "h", "d"),
    ("epochs", "epochs", "d"),
    ("train_classified", "train corr.", "d"),
    ("train_eff", "train eff", ".2f"),
    ("train_mse", "train mse", ".4f"),
    ("valid_classified", "valid corr.", "d"),
    ("valid_eff", "valid eff", ".2f"),
    ("valid_mse", "valid mse", ".4f"),
    ("test_classified", "test corr.", "d"),
    ("test_eff", "test eff", ".2f"),
    ("overall_eff", "overall eff", ".5f"),
)
_CSV_HEADER = ",".join([name for name, _, _ in _COLUMNS] + ["best"])

_JSONL_KEYS = {f.name for f in dataclasses.fields(PhaseRecord)} | {
    "selected", "stop_reason",
}


@dataclass
class ExperimentConfig:
    """Everything a run depends on besides the dataset bytes."""

    dataset_path: str
    dataset_kind: str = field(default="proben1",
                              metadata={"choices": DATASET_KINDS})
    train: TrainConfig = field(default_factory=TrainConfig)
    sweep_seeds: tuple = tuple(range(10))
    output_path: str = "results"
    output_format: str = field(default="csv",
                               metadata={"choices": OUTPUT_FORMATS})
    n_jobs: int = field(default=0, metadata={"least": 0})

    def __post_init__(self):
        check_fields(self)
        if not self.dataset_path:
            raise ConfigError("a dataset path is required")
        if "\0" in self.dataset_path + self.output_path:
            raise ConfigError("paths must not contain NUL characters")
        if not isinstance(self.train, TrainConfig):
            raise ConfigError(
                f"train must be a TrainConfig, got {self.train!r}"
            )
        if not isinstance(self.sweep_seeds, (list, tuple, range)):
            raise ConfigError(f"sweep_seeds must be a list of seeds, "
                              f"got {self.sweep_seeds!r}")
        # Every seed is checked by TrainConfig's seed rule, so a bad sweep
        # fails before anything is written.  A range stays one: it cannot
        # repeat a seed, and its ends bound every seed in it.  It steps by
        # 1, as a --seeds range does, so config.json stores it as its ends,
        # and its length must fit len(), which the sweep takes.
        if not self.sweep_seeds:
            raise ConfigError("sweep_seeds must not be empty")
        if isinstance(self.sweep_seeds, range):
            if self.sweep_seeds.step != 1:
                raise ConfigError(f"sweep_seeds {self.sweep_seeds} must "
                                  f"step by 1")
            check_seed(self.sweep_seeds[0])
            check_seed(self.sweep_seeds[-1])
            try:
                len(self.sweep_seeds)
            except OverflowError:
                raise ConfigError(f"sweep_seeds {self.sweep_seeds} holds "
                                  f"too many seeds to run") from None
        else:
            self.sweep_seeds = tuple(map(check_seed, self.sweep_seeds))
            if len(set(self.sweep_seeds)) != len(self.sweep_seeds):
                raise ConfigError(f"sweep_seeds repeats a seed: "
                                  f"{list(self.sweep_seeds)}")

    def train_config(self, seed):
        return dataclasses.replace(self.train, seed=seed)

    def jobs(self):
        if self.n_jobs:
            return min(self.n_jobs, len(self.sweep_seeds))
        return min(len(self.sweep_seeds), os.cpu_count() or 1)


def resolve_dataset_path(name_or_path):
    """Accept a real path or the bare name of a bundled benchmark."""
    p = Path(name_or_path)
    if not p.exists() and str(name_or_path) in BUNDLED:
        return bundled_dataset_path(str(name_or_path))
    return p


def load_any(cfg):
    path = resolve_dataset_path(cfg.dataset_path)
    if cfg.dataset_kind == "raw-csv":
        return load_raw_csv(path)
    return load_dataset(path)


def config_record(cfg):
    """The flat object ``config.json`` holds, which ``--config`` reads back.
    A range of seeds is kept unexpanded, as its ``--seeds`` text."""
    record = dataclasses.asdict(cfg)
    record.update(record.pop("train"))
    del record["seed"]
    record["dataset_path"] = str(resolve_dataset_path(cfg.dataset_path))
    seeds = cfg.sweep_seeds
    record["sweep_seeds"] = (f"{seeds.start}:{seeds.stop}"
                             if isinstance(seeds, range) else list(seeds))
    return record


def render_table(history, fmt, seed=None):
    """Format a growth history as one row per phase.

    The selected phase (the accepting one, or the best found when growth
    hit the cap) is flagged in the ``best`` column in CSV, bolded in
    markdown, and marked ``"selected": true`` in JSON lines, whose rows
    also carry ``seed`` when one is given.  CSV cells keep full float
    precision and round-trip exactly; markdown rounds for display (two
    decimals for set efficiencies, five for the overall column).
    """
    selected = history.selected_index()
    if fmt == "csv":
        lines = [_CSV_HEADER]
        for i, rec in enumerate(history.phases):
            row = dataclasses.astuple(rec) + (int(i == selected),)
            lines.append(",".join(map(str, row)))
        lines.append(f"# stop_reason={history.stop_reason}")
        return "\n".join(lines) + "\n"
    if fmt == "markdown":
        headings = [heading for _, heading, _ in _COLUMNS]
        lines = ["| " + " | ".join(headings) + " |",
                 "|" + "---|" * len(_COLUMNS)]
        for i, rec in enumerate(history.phases):
            cells = [format(value, spec) for value, (_, _, spec)
                     in zip(dataclasses.astuple(rec), _COLUMNS)]
            if i == selected:
                cells = [f"**{c}**" for c in cells]
            lines.append("| " + " | ".join(cells) + " |")
        lines.append("")
        lines.append(f"stop reason: {history.stop_reason}")
        return "\n".join(lines) + "\n"
    if fmt == "json-lines":
        return "".join(
            _json_line(rec, i == selected, history.stop_reason, seed)
            for i, rec in enumerate(history.phases)
        )
    raise ConfigError(f"unknown table format {fmt!r}")


def _json_line(record, selected, stop_reason, seed=None):
    obj = dataclasses.asdict(record)
    obj["selected"] = selected
    obj["stop_reason"] = stop_reason
    if seed is not None:
        obj["seed"] = seed
    return json.dumps(obj, sort_keys=True) + "\n"


def _history(stop, rows):
    """The GrowthHistory of ``(line_no, flag, record)`` rows, whose flags
    must mark just the phase that ``selected_index()`` picks, ended by the
    ``(line_no, stop_reason)`` of ``stop``.  A row out of growth order is
    named by its own line."""
    records = tuple(rec for _, _, rec in rows)
    fault = phase_fault(records)
    if fault is not None:
        raise ConfigError(f"line {rows[fault[0]][0]}: {fault[1]}")
    line_no, stop_reason = stop
    with naming(f"line {line_no}"):
        history = GrowthHistory(records, stop_reason)
    selected = history.selected_index()
    for i, (line_no, flag, _) in enumerate(rows):
        if flag != (i == selected):
            raise ConfigError(f"line {line_no}: flagged {int(flag)}, but "
                              f"h={history.phases[selected].h} is selected")
    return history


def parse_table_csv(text):
    """Rebuild a GrowthHistory from :func:`render_table` CSV output.

    A row with the wrong number of cells, a non-numeric or non-finite cell
    or a ``best`` flag that is not 1 on the selected phase and 0 elsewhere,
    or a second or unknown stop_reason, raises :class:`ConfigError` naming
    its line.
    """
    rows = []
    stop = None
    types = [f.type for f in dataclasses.fields(PhaseRecord)] + [int]
    lines = numbered_lines(text)
    if not lines or lines[0][1] != _CSV_HEADER:
        raise ConfigError("not a growth-table CSV")
    for line_no, ln in lines[1:]:
        with naming(f"line {line_no}"):
            if ln.startswith("#"):
                key, _, value = ln.lstrip("# ").partition("=")
                if key == "stop_reason" and stop is not None:
                    raise ConfigError("a second stop_reason")
                if key == "stop_reason":
                    stop = (line_no, value)
                continue
            cells = ln.split(",")
            if len(cells) != len(types):
                raise ConfigError(
                    f"expected {len(types)} cells, got {len(cells)}")
            try:
                *values, best = [t(cell) for t, cell in zip(types, cells)]
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
            if best not in (0, 1):
                raise ConfigError(f"best must be 0 or 1, got {best}")
            rows.append((line_no, best == 1, PhaseRecord(*values)))
    if stop is None or not rows:
        raise ConfigError("growth-table CSV lacks phase rows or stop_reason")
    return _history(stop, rows)


def _summary_lines(chosen):
    """``summary.csv``'s lines over ``(seed, history, selected record)``
    entries, and the entry with the highest test efficiency (the lowest
    seed on ties)."""
    best = max(chosen, key=lambda entry: (entry[2].test_eff, -entry[0]))
    lines = ["seed,stop_reason,h,epochs,test_eff,overall_eff,best"]
    for seed, history, rec in chosen:
        lines.append(",".join([
            str(seed), history.stop_reason, str(rec.h),
            str(rec.epochs_cumulative),
            repr(rec.test_eff), repr(rec.overall_eff),
            str(int(seed == best[0])),
        ]))
    return lines, best


def _flush_results(cfg, outdir, chosen):
    if cfg.output_format == "json-lines":
        write_text(outdir / "histories.jsonl", "".join(
            render_table(history, "json-lines", seed)
            for seed, history, _ in chosen))
    else:
        for seed, history, _ in chosen:
            write_text(outdir / f"seed_{seed}.csv",
                       render_table(history, "csv"))
    lines, best = _summary_lines(chosen)
    write_text(outdir / "summary.csv", "\n".join(lines) + "\n")
    return best


def run_experiment(cfg, log=print):
    """Run the sweep, write result files, and return the exit status.

    The seeds share the dataset, loaded once, and run on ``cfg.jobs()``
    threads when that is above 1; results keep sweep order either way.
    Status 0 means at least one seed's run was accepted (always 0 under
    ``report_only``); status 1 means the sweep finished without any
    acceptance.  If a seed fails or the run is interrupted, the finished
    seeds before it are written and the error propagates.
    """
    data = load_any(cfg)
    outdir = Path(cfg.output_path)
    outdir.mkdir(parents=True, exist_ok=True)
    write_text(outdir / "config.json",
               json.dumps(config_record(cfg), sort_keys=True, indent=2) + "\n")

    def run_seed(seed):
        history = constructive_train(data, cfg.train_config(seed))[1]
        return seed, history, history.phases[history.selected_index()]

    chosen = []
    try:
        with contextlib.ExitStack() as stack:
            # A serial sweep runs its seeds in turn with the builtin map:
            # it builds no pool and does not import concurrent.futures.
            ordered_map = map
            if cfg.jobs() > 1:
                from concurrent.futures import ThreadPoolExecutor
                ordered_map = stack.enter_context(
                    ThreadPoolExecutor(cfg.jobs())).map
            # One entry at a time, so the seeds before a failing one are
            # still written.
            try:
                for entry in ordered_map(run_seed, cfg.sweep_seeds):
                    chosen.append(entry)
            except KeyboardInterrupt:
                # The seeds running on threads stop at their next epoch.
                trainer.interrupted = True
                raise
    finally:
        # The pool's threads have all ended, so no phase reads the flag.
        trainer.interrupted = False
        best = _flush_results(cfg, outdir, chosen) if chosen else None

    for seed, history, rec in chosen:
        log(f"seed {seed}: {history.stop_reason} h={rec.h} "
            f"epochs={rec.epochs_cumulative} test_eff={rec.test_eff:.2f} "
            f"overall={rec.overall_eff:.5f}")
    seed, _, rec = best
    log(f"best of sweep: seed {seed} h={rec.h} "
        f"test_eff={rec.test_eff:.2f} overall={rec.overall_eff:.5f}")
    log(f"results written to {outdir}")
    accepted = any(
        history.stop_reason == STOP_ACCEPTED for _, history, _ in chosen
    )
    return 0 if (accepted or cfg.train.report_only) else 1


def parse_seeds(text):
    """Parse ``"3"``, ``"1,4,9"`` or the half-open ``range`` ``"0:10"``."""
    text = text.strip()
    try:
        if ":" in text:
            lo, _, hi = text.partition(":")
            seeds = range(int(lo), int(hi))
        else:
            seeds = tuple(
                int(part) for part in text.split(",") if part.strip()
            )
    except ValueError:
        raise ConfigError(
            f"bad seeds {text!r}: expected 3, 1,4,9 or 0:10"
        ) from None
    if not seeds:
        raise ConfigError(f"no seeds in {text!r}")
    return seeds


def _load_config_file(path):
    known = {f.name for f in dataclasses.fields(ExperimentConfig)
             + TRAIN_OPTIONS if f.name != "train"}
    with naming(path):
        entries = json_object(read_text(path, "utf-8", ConfigError),
                              ConfigError)
        unknown = set(entries) - known
        if unknown:
            raise ConfigError(f"unknown keys: {', '.join(sorted(unknown))}")
    return entries


def build_experiment_config(args):
    """Merge built-in defaults, dataset preset, config file and flags."""
    flags = {name: value for name, value in vars(args).items()
             if name not in ("config", "func", "command")}
    file_entries = _load_config_file(args.config) if args.config else {}
    dataset = {**file_entries, **flags}.get("dataset_path")
    if not dataset or not isinstance(dataset, str):
        raise ConfigError("no dataset given (argument or config file)")
    preset = PRESETS.get(match_profile(dataset), {})
    merged = {**preset, **file_entries, **flags}
    if isinstance(merged.get("sweep_seeds"), str):
        merged["sweep_seeds"] = parse_seeds(merged["sweep_seeds"])
    train = {f.name: merged.pop(f.name) for f in TRAIN_OPTIONS
             if f.name in merged}
    return ExperimentConfig(train=TrainConfig(**train), **merged)


def cmd_train(args):
    return run_experiment(build_experiment_config(args))


def cmd_inspect(args):
    path = resolve_dataset_path(args.dataset)
    h = load_any(ExperimentConfig(dataset_path=args.dataset,
                                  dataset_kind=args.dataset_kind)).header
    rule = "threshold" if h.n_outputs == 1 else "argmax"
    print(f"dataset: {path}")
    print(f"inputs: {h.n_inputs}  outputs: {h.n_outputs} ({rule})  "
          f"classes: {h.n_classes}")
    print(f"split: train={h.n_train} valid={h.n_valid} test={h.n_test} "
          f"total={h.total}")
    expected_name = match_profile(path)
    if expected_name is None:
        return 0
    expected = EXPECTED_HEADERS[expected_name]
    if h == expected:
        print(f"header matches the {expected_name} benchmark")
        return 0
    print(f"header differs from the {expected_name} benchmark: "
          f"expected {expected}")
    return 1


def cmd_render(args):
    with naming(args.results):
        text = read_text(args.results, error=ConfigError)
        if text.startswith(_CSV_HEADER):
            histories = [(None, parse_table_csv(text))]
        else:
            histories = _histories_from_jsonl(text)
    out = []
    for seed, history in histories:
        if seed is not None and args.format != "json-lines":
            marker = "#" if args.format == "csv" else "##"
            out.append(f"{marker} seed {seed}\n")
        out.append(render_table(history, args.format, seed))
    sys.stdout.write("".join(out))
    return 0


def _jsonl_row(ln):
    """``(seed, stop_reason, selected, record)`` of a JSON line."""
    obj = json_object(ln, ConfigError)
    wrong = sorted((_JSONL_KEYS - set(obj)) | (set(obj) - _JSONL_KEYS
                                                - {"seed"}))
    if wrong:
        raise ConfigError(f"missing or unknown keys: {', '.join(wrong)}")
    seed = obj.pop("seed", None)
    stop_reason = obj.pop("stop_reason")
    selected = obj.pop("selected")
    if (type(seed) not in (int, type(None)) or type(stop_reason) is not str
            or type(selected) is not bool):
        raise ConfigError("seed must be an integer, stop_reason a string "
                          "and selected a boolean")
    return seed, stop_reason, selected, PhaseRecord(**obj)


def _histories_from_jsonl(text):
    by_seed = {}
    for line_no, ln in numbered_lines(text):
        with naming(f"line {line_no}"):
            if not by_seed and not ln.startswith("{"):
                raise ConfigError("not a growth-table CSV or JSON lines")
            seed, stop_reason, selected, record = _jsonl_row(ln)
            (_, first), rows = by_seed.setdefault(
                seed, ((line_no, stop_reason), []))
            if stop_reason != first:
                raise ConfigError(f"stop_reason {stop_reason!r}, but "
                                  f"{first!r} on this seed's first row")
        rows.append((line_no, selected, record))
    if not by_seed:
        raise ConfigError("no result rows")
    return [(seed, _history(*entry)) for seed, entry in sorted(
        by_seed.items(), key=lambda item: (item[0] is None, item[0]))]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="growbp",
        description=("Constructive training of single-hidden-layer "
                     "networks with per-seed growth tables."),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    kinds = " or ".join(DATASET_KINDS)

    train = sub.add_parser(
        "train", help="run constructive training over a sweep of seeds"
    )
    train.add_argument(
        "dataset_path", nargs="?", default=argparse.SUPPRESS,
        help=f"dataset file or one of the bundled names {'/'.join(BUNDLED)}",
    )
    train.add_argument("--config", help="JSON file with config defaults")
    train.add_argument("--seeds", dest="sweep_seeds", metavar="SEEDS",
                       default=argparse.SUPPRESS,
                       help="one seed, a comma list or a range, e.g. 0:10")
    train.add_argument("--dataset-kind", dest="dataset_kind",
                       default=argparse.SUPPRESS, help=kinds)
    for f in TRAIN_OPTIONS:
        kind = ({"action": argparse.BooleanOptionalAction}
                if f.type is bool else {"type": f.type})
        train.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                           default=argparse.SUPPRESS,
                           help=f.metadata.get("help"), **kind)
    train.add_argument("--output", dest="output_path",
                       default=argparse.SUPPRESS,
                       help=f"directory for result files (default: "
                            f"{ExperimentConfig.output_path})")
    train.add_argument("--format", dest="output_format",
                       default=argparse.SUPPRESS,
                       help=f"{' or '.join(OUTPUT_FORMATS)} "
                            f"(render prints markdown)")
    train.add_argument("--jobs", dest="n_jobs", type=int,
                       default=argparse.SUPPRESS,
                       help="seeds run at once on threads (0 = one per core)")
    train.set_defaults(func=cmd_train)

    inspect = sub.add_parser(
        "inspect", help="validate and summarize a dataset file"
    )
    inspect.add_argument("dataset")
    inspect.add_argument("--dataset-kind", dest="dataset_kind",
                         default=ExperimentConfig.dataset_kind, help=kinds)
    inspect.set_defaults(func=cmd_inspect)

    render = sub.add_parser(
        "render", help="reformat a stored results file"
    )
    render.add_argument("results", help="growth-table CSV or histories.jsonl")
    render.add_argument("--format", choices=TABLE_FORMATS,
                        default="markdown")
    render.set_defaults(func=cmd_render)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader closed stdout early (``growbp render ... | head``).
        # Send what is still buffered to /dev/null, so the interpreter's
        # last flush does not fail again.
        with contextlib.suppress(OSError):  # stdout without a descriptor
            stdout_fd = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), stdout_fd)
        return 0
    except (GrowbpError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # Ctrl-C: the finished seeds are written; 128 + SIGINT, as a shell
        # reports a command the signal ended.
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
