"""Command line front end: fit, sample, exact, count, simulate, report.

Every run resolves its configuration into a flat manifest (key=value lines,
including the seed and library versions) and writes it next to the outputs,
so `ebggm rerun manifest.txt` reproduces the run byte for byte.  A rerun
first checks its input files against the checksums in the manifest and
warns when a library version differs from the recorded one.  A relative
input path is read from the directory the run recorded as cwd=.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import platform
import sys
import typing
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .dataio import (fmt, ingest_csv, read_manifest, read_posterior_csv,
                     sha256_of, write_acceptance_trace, write_csv,
                     write_data_csv, write_manifest, write_posterior_csv,
                     write_saem_trace, write_visit_log)
from .errors import ChecksumError, EbggmError, ParseError
from .exact import exact_posterior
from .graphs import MAX_P, Graph, count_decomposable, edge_pair, id_width, \
    n_candidate_edges, named_graph, to_dot
from .hiw import Hyperparams, simulate_dataset
from .saem import SaemConfig, run_saem
from .sampler import KERNEL_MODES, WEIGHT_FLOOR, KernelConfig, auto_kernel_mode, run_chain

OUT_DIR_ENV = "EBGGM_OUT_DIR"
MANIFEST = "manifest.txt"


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved settings for one command invocation.

    String fields use "" for absent; "auto" for kernel means: let fit pick
    between alternate and add_delete from the data, use add_delete elsewhere.
    """

    command: str
    data: str = ""
    center: bool = True
    standardize: bool = True
    # model hyperparameters
    delta: float = Hyperparams.delta
    phi_mode: str = Hyperparams.phi_mode
    tau: float = Hyperparams.tau
    graph_prior: str = Hyperparams.graph_prior
    r: float = Hyperparams.r
    # chain settings
    kernel: str = "auto"
    n_steps: int = 100000
    n_burn: int = 10000
    # EM settings
    n_iter: int = SaemConfig.n_iter
    n_unit: int = SaemConfig.n_unit
    m_first: int = SaemConfig.m_first
    m_rest: int = SaemConfig.m_rest
    n_warm: int = SaemConfig.n_warm
    init_tau: float = SaemConfig.init_tau
    init_r: float = SaemConfig.init_r
    # simulate / count / report inputs
    p: int = 0
    graph: str = ""
    n: int = 100
    top_k: int = 10
    table: str = ""
    # run plumbing
    seed: int = 0
    out_dir: str = ""

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.top_k < 1:
            raise ValueError(f"top_k must be at least 1, got {self.top_k}")
        if self.kernel not in KERNELS:
            raise ValueError(f"--kernel must be one of {KERNELS}, got {self.kernel!r}")
        if self.n_steps < 1:
            raise ValueError(f"--n-steps must be at least 1, got {self.n_steps}")
        if self.n_burn < 0:
            raise ValueError(f"--n-burn must be nonnegative, got {self.n_burn}")


KERNELS = ("auto", *KERNEL_MODES)
_HINTS = typing.get_type_hints(RunConfig)
_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
# (manifest key, RunConfig field) of each input file whose SHA-256 a run
# records and a rerun checks.
CHECKSUMS = (("data_sha256", "data"), ("table_sha256", "table"))


def config_from_manifest(mapping):
    """Rebuild a RunConfig from a manifest's key=value mapping.

    Keys that are not RunConfig fields (versions, checksums) are ignored, but
    a weight_floor, which older manifests record, must be the floor in use.
    """
    if "command" not in mapping:
        raise ParseError("manifest has no command= entry")
    kwargs = {}
    for name, hint in (*_HINTS.items(), ("weight_floor", float)):
        if name not in mapping:
            continue
        text = mapping[name]
        try:
            kwargs[name] = _BOOLS[text.lower()] if hint is bool else hint(text)
        except (KeyError, ValueError):
            raise ParseError(
                f"manifest entry {name}={text!r} is not a valid {hint.__name__}") from None
    if kwargs.pop("weight_floor", WEIGHT_FLOOR) != WEIGHT_FLOOR:
        raise ParseError(f"manifest entry weight_floor={mapping['weight_floor']!r} is not "
                         f"{fmt(WEIGHT_FLOOR)}, the only weight floor of this version")
    return RunConfig(**kwargs)


def _resolve_inputs(cfg, mapping):
    """cfg with each relative input path joined onto the directory the run
    recorded as cwd=; a manifest without cwd= keeps its paths as recorded."""
    cwd = mapping.get("cwd")
    if not cwd:
        return cfg
    return replace(cfg, **{field: os.path.join(cwd, getattr(cfg, field))
                           for _, field in CHECKSUMS if getattr(cfg, field)})


def verify_inputs(cfg, mapping, manifest):
    """Check the input files of a run against the checksums its manifest recorded.

    Raises ChecksumError naming the first file whose SHA-256 differs, or
    the manifest and key that recorded a file that cannot be read.
    """
    for key, field in CHECKSUMS:
        want, path = mapping.get(key), getattr(cfg, field)
        if want and path:
            try:
                got = sha256_of(path)
            except OSError as exc:
                raise ChecksumError(f"manifest {manifest} records {field}={path}, "
                                    f"which cannot be read: {exc}") from exc
            if got != want:
                raise ChecksumError(
                    f"{path}: sha256 mismatch (manifest {want}, file {got})")


def _library_versions():
    return {"package_version": __version__, "numpy_version": np.__version__}


def _warn_version_drift(mapping, stream):
    """Print a warning for each library version that differs from the manifest's."""
    for key, running in _library_versions().items():
        recorded = mapping.get(key)
        if recorded is not None and recorded != running:
            print(f"warning: manifest {key}={recorded}, running {running}",
                  file=stream)


def _from_fields(cls, cfg):
    """A cls dataclass built from the RunConfig fields of the same names."""
    return cls(**{f.name: getattr(cfg, f.name) for f in dataclasses.fields(cls)})


def _artifact(out, name):
    """Path of an artifact in out, with any manifest there removed first.

    A run that fails before its first write leaves the old manifest and
    artifacts as they were; one that fails later leaves no manifest.
    """
    Path(out, MANIFEST).unlink(missing_ok=True)
    return os.path.join(out, name)


def _finish(cfg, out, extras):
    """Write a resolved run's manifest, with its inputs' checksums and the
    directory their relative paths start from; returns its path."""
    mapping = dataclasses.asdict(cfg)
    mapping.update(extras, cwd=os.getcwd())
    mapping.update((key, sha256_of(getattr(cfg, field)))
                   for key, field in CHECKSUMS if getattr(cfg, field))
    mapping.update(_library_versions())
    mapping["python_version"] = platform.python_version()
    path = os.path.join(out, MANIFEST)
    write_manifest(path, mapping)
    return path


def _inclusion_probs(p, pairs):
    """Per edge, the summed weight of the graphs holding it, added in pair order."""
    m = n_candidate_edges(p)
    size = (m + 7) // 8
    packed = np.frombuffer(b"".join(gid.to_bytes(size, "little") for gid, _ in pairs),
                           dtype=np.uint8).reshape(len(pairs), size)
    weights = np.array([w for _, w in pairs])
    incl = np.zeros(m)
    for k in range(m):
        if k % 8 == 0:  # one row of flags per edge of the next byte
            bits = np.unpackbits(packed[None, :, k // 8], axis=0, bitorder="little").view(bool)
        held = weights[bits[k % 8]]
        if held.size:
            # np.cumsum adds left to right, and += adds its total to 0.0, so
            # the bits are those of np.add.at, in O(graphs) memory
            incl[k] += np.cumsum(held)[-1]
    return incl


def _write_report(out, p, pairs, top_k, stdout=None):
    """Render top graphs, edge inclusion probabilities, and DOT files.

    pairs is a list of (graph bitset, weight) with weights summing to one,
    sorted by decreasing weight.
    """
    width = id_width(p)
    top = pairs[:top_k]
    incl = _inclusion_probs(p, pairs)
    tables = (
        ("top graphs", "top_graphs.csv", ("rank", "graph_id", "k_edges", "prob"),
         [(rank + 1, format(gid, f"0{width}x"), gid.bit_count(), w)
          for rank, (gid, w) in enumerate(top)]),
        ("edge inclusion probabilities", "edge_marginals.csv", ("i", "j", "prob"),
         [(i + 1, j + 1, incl[k])
          for k, (i, j) in ((k, edge_pair(p, k)) for k in range(len(incl)))]),
    )
    blocks = []
    for title, name, header, rows in tables:
        write_csv(_artifact(out, name), header, rows)
        blocks.append("".join(line + "\n" for line in (
            title, " ".join(header), *(" ".join(map(fmt, row)) for row in rows))))
    with open(_artifact(out, "report.txt"), "w") as fh:
        fh.write("\n".join(blocks))
    for rank, (gid, _) in enumerate(top):
        with open(_artifact(out, f"top_{rank + 1}.dot"), "w") as fh:
            fh.write(to_dot(Graph(p, gid), name=f"G{rank + 1}"))
    if stdout is not None and top:
        gid, w = top[0]
        print(f"top1_graph={format(gid, f'0{width}x')} top1_prob={fmt(w)}",
              file=stdout)


def _ranked(pairs, source):
    """(graph, weight) pairs scaled to sum to one, unless they already do to
    within 1e-9, and ordered by decreasing weight, then graph ID."""
    total = sum(w for _, w in pairs)
    if not pairs or total <= 0:
        raise ParseError(f"{source}: table carries no probability mass")
    if abs(total - 1.0) > 1e-9:
        pairs = [(gid, w / total) for gid, w in pairs]
    return sorted(pairs, key=lambda t: (-t[1], t[0]))


def _cmd_count(cfg, out):
    total = 2 ** n_candidate_edges(cfg.p)
    dec = count_decomposable(cfg.p)
    line = f"p={cfg.p} total={total} decomposable={dec}"
    print(line)
    with open(_artifact(out, "counts.txt"), "w") as fh:
        fh.write(line + "\n")
    return cfg, {}


def _cmd_simulate(cfg, out):
    g = named_graph(cfg.graph, cfg.p or None)
    if cfg.p and g.p != cfg.p:
        raise ValueError(f"--graph {cfg.graph!r} has p={g.p}, but --p {cfg.p} "
                         "was given")
    if cfg.n < 1:
        raise ValueError(f"--n must be at least 1, got {cfg.n}")
    hp = Hyperparams(delta=cfg.delta, tau=cfg.tau)
    rng = np.random.default_rng(cfg.seed)
    data, _ = simulate_dataset(g, hp.tau, hp.delta, cfg.n, rng)
    data_path = _artifact(out, "data.csv")
    write_data_csv(data_path, data)
    with open(_artifact(out, "truth.dot"), "w") as fh:
        fh.write(to_dot(g, name="truth"))
    print(f"data={data_path} graph_id={g.id_hex}")
    return replace(cfg, p=g.p), {"graph_id": g.id_hex}


def _cmd_exact(cfg, out):
    hp = _from_fields(Hyperparams, cfg)
    stats, _ = ingest_csv(cfg.data, center=cfg.center, standardize=cfg.standardize)
    table = exact_posterior(stats, hp)
    write_posterior_csv(_artifact(out, "posterior.csv"), table)
    pairs = list(zip(table.graph_ids, table.probs.tolist()))
    _write_report(out, stats.p, pairs, cfg.top_k, stdout=sys.stdout)
    return replace(cfg, p=stats.p), {}


def _cmd_sample(cfg, out):
    hp = _from_fields(Hyperparams, cfg)
    stats, _ = ingest_csv(cfg.data, center=cfg.center, standardize=cfg.standardize)
    mode = "add_delete" if cfg.kernel == "auto" else cfg.kernel
    kernel = KernelConfig(mode=mode)
    rng = np.random.default_rng(cfg.seed)
    start = Graph(stats.p)
    if cfg.n_burn:
        start, _ = run_chain(start, cfg.n_burn, stats, hp, kernel, rng)
    _, log = run_chain(start, cfg.n_steps, stats, hp, kernel, rng)
    visits = _artifact(out, "visits.csv")
    write_visit_log(visits, log)
    write_acceptance_trace(_artifact(out, "acceptance.csv"), log)
    # float counts, so that a one-step chain writes its prob as 1.0
    counts = [(gid, float(c)) for gid, c in Counter(log.graph_ids).items()]
    _write_report(out, stats.p, _ranked(counts, visits), cfg.top_k)
    print(f"steps={len(log)} accept_rate={fmt(log.acceptance_rate())}")
    return replace(cfg, kernel=mode, p=stats.p), {}


def _cmd_fit(cfg, out):
    # SaemConfig first, so that a bad init_tau or init_r is named as such
    saem_cfg = _from_fields(SaemConfig, cfg)
    hp_base = Hyperparams(delta=cfg.delta, phi_mode="scaled_identity",
                          tau=cfg.init_tau, graph_prior=cfg.graph_prior,
                          r=cfg.init_r)
    stats, _ = ingest_csv(cfg.data, center=cfg.center, standardize=cfg.standardize)
    mode = auto_kernel_mode(stats) if cfg.kernel == "auto" else cfg.kernel
    kernel = KernelConfig(mode=mode)
    rng = np.random.default_rng(cfg.seed)
    result = run_saem(stats, saem_cfg, hp_base, rng, kernel=kernel)
    write_saem_trace(_artifact(out, "saem_trace.csv"), result)
    tail = result.trace[-min(50, len(result.trace)):, -1] if len(result.trace) \
        else np.zeros(1)
    summary = [f"tau_hat={fmt(result.tau)}",
               f"r_hat={fmt(result.r)}",
               f"init_graph={result.init_graph.id_hex}",
               f"final_graph={result.final_state.graph.id_hex}",
               f"tail_accept_rate={fmt(float(np.mean(tail)))}"]
    with open(_artifact(out, "summary.txt"), "w") as fh:
        fh.write("\n".join(summary) + "\n")
    print(f"tau_hat={fmt(result.tau)} r_hat={fmt(result.r)}")
    return replace(cfg, kernel=mode, phi_mode="scaled_identity", p=stats.p), {}


def _cmd_report(cfg, out):
    if not 1 <= cfg.p <= MAX_P:
        raise ValueError(f"--p must be in 1..{MAX_P}, got {cfg.p}")
    pairs = _ranked(read_posterior_csv(cfg.table, cfg.p), cfg.table)
    _write_report(out, cfg.p, pairs, cfg.top_k, stdout=sys.stdout)
    return cfg, {}


class _Command(typing.NamedTuple):
    run: typing.Callable
    help: str
    needs: tuple    # (RunConfig field, hint) of each input the run cannot do without
    options: tuple  # RunConfig fields set by a --flag of the same name


# Every command also takes --out-dir, and one that needs --data takes the
# data options (--data, --no-center, --no-standardize) before its own.
_DATA = ("data", "CSV dataset path")
_MODEL = ("delta", "phi_mode", "tau", "graph_prior", "r")
COMMANDS = {
    "fit": _Command(_cmd_fit, "estimate (tau, r) by stochastic EM", (_DATA,), (
        "delta", "graph_prior", "kernel", "n_iter", "n_unit",
        "m_first", "m_rest", "n_warm", "init_tau", "init_r", "seed")),
    "sample": _Command(_cmd_sample, "run a graph chain and report visited structures",
                       (_DATA,), (*_MODEL, "kernel", "n_steps", "n_burn", "top_k", "seed")),
    "exact": _Command(_cmd_exact,
                      "exact posterior over all decomposable graphs (small p)",
                      (_DATA,), (*_MODEL, "top_k")),
    "count": _Command(_cmd_count, "count decomposable graphs on p vertices",
                      (("p", "number of vertices"),), ("p",)),
    "simulate": _Command(_cmd_simulate, "draw a dataset from a known graph",
                         (("graph", "builtin name or hex graph ID"),),
                         ("p", "graph", "tau", "delta", "n", "seed")),
    "report": _Command(_cmd_report,
                       "render top graphs and edge marginals from an existing CSV",
                       (("table", "posterior or visit-log CSV"),
                        ("p", "number of vertices the table refers to")),
                       ("table", "p", "top_k")),
}


def run_command(cfg: RunConfig):
    """Execute one command; returns the output directory used.

    Any old manifest is removed before the first artifact is written (see
    _artifact) and the new one is written last, so a manifest on disk always
    describes the artifacts beside it, even after a run that failed part way.
    """
    out = cfg.out_dir or os.environ.get(OUT_DIR_ENV, "") or "ebggm_out"
    os.makedirs(out, exist_ok=True)
    command = COMMANDS[cfg.command]
    for field, hint in command.needs:
        if not getattr(cfg, field):
            raise ValueError(f"command {cfg.command!r} needs --{field} ({hint})")
    resolved, extras = command.run(replace(cfg, out_dir=out), out)
    _finish(resolved, out, extras)
    return out


def _add_options(sub, *names):
    for name in names:
        flag = "--" + name.replace("_", "-")
        default = RunConfig.__dataclass_fields__[name].default
        sub.add_argument(flag, dest=name, type=_HINTS[name], default=default)


def _add_data_options(sub):
    sub.add_argument("--data", dest="data", required=True,
                     help="CSV dataset, one row per observation")
    sub.add_argument("--no-center", dest="center", action="store_false",
                     help="keep column means (default subtracts them)")
    sub.add_argument("--no-standardize", dest="standardize",
                     action="store_false",
                     help="keep column scales (default divides by sample sd)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ebggm",
        description="Bayesian structure selection in decomposable Gaussian "
                    "graphical models")
    subs = parser.add_subparsers(dest="command")
    for name, command in COMMANDS.items():
        sub = subs.add_parser(name, help=command.help)
        if _DATA in command.needs:
            _add_data_options(sub)
        _add_options(sub, *command.options, "out_dir")
    rerun = subs.add_parser("rerun", help="repeat a run from its manifest")
    rerun.add_argument("manifest", help="manifest.txt from a previous run")
    rerun.add_argument("--out-dir", dest="out_dir", default="")
    return parser


def main(argv=None):
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.command is None:
        parser.print_help(sys.stderr)
        return 2
    try:
        if ns.command == "rerun":
            mapping = read_manifest(ns.manifest)
            cfg = _resolve_inputs(config_from_manifest(mapping), mapping)
            _warn_version_drift(mapping, sys.stderr)
            verify_inputs(cfg, mapping, ns.manifest)
            if ns.out_dir:
                cfg = replace(cfg, out_dir=ns.out_dir)
        else:  # every option's dest is a RunConfig field
            cfg = RunConfig(**vars(ns))
        run_command(cfg)
    except (EbggmError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
