"""Tests for CSV ingestion, artifact writers, and the command-line flow."""

import argparse
import csv
import filecmp
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from ebggm import (DatasetStats, Graph, Hyperparams, KernelConfig, NonFiniteError,
                   ParseError, SaemConfig, ZeroVarianceError, cli, exact_posterior,
                   n_candidate_edges, random_decomposable_graph, run_chain, run_saem,
                   sampler)
from ebggm.cli import (
    RunConfig,
    build_parser,
    config_from_manifest,
    main,
    run_command,
)
from ebggm.dataio import (
    fmt,
    ingest_csv,
    read_manifest,
    read_posterior_csv,
    sha256_of,
    write_acceptance_trace,
    write_csv,
    write_data_csv,
    write_manifest,
    write_posterior_csv,
    write_saem_trace,
    write_visit_log,
)
from ebggm.exact import _decomposable_families
from ebggm.graphs import id_width


def write(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return str(path)


# ---------------------------------------------------------------- ingestion


def test_ingest_center_only_tiny_example(tmp_path):
    path = write(tmp_path / "d.csv", "1.0\n3.0\n")
    stats, raw = ingest_csv(path, center=True, standardize=False)
    assert np.array_equal(raw, [[1.0], [3.0]])
    assert np.array_equal(stats.data, [[-1.0], [1.0]])
    assert np.array_equal(stats.scatter, [[2.0]])


def test_ingest_header_autodetect(tmp_path):
    with_header = write(tmp_path / "h.csv", "a,b\n1,2\n3,4\n5,9\n")
    stats, raw = ingest_csv(with_header, center=False, standardize=False)
    assert raw.shape == (3, 2)
    bare = write(tmp_path / "b.csv", "1,2\n3,4\n5,9\n")
    stats2, raw2 = ingest_csv(bare, center=False, standardize=False)
    assert np.array_equal(raw, raw2)
    assert np.array_equal(stats.scatter, stats2.scatter)


def test_ingest_mixed_first_row_is_data(tmp_path):
    mixed = write(tmp_path / "m.csv", "1.0,abc\n1,2\n3,4\n5,9\n")
    with pytest.raises(ParseError, match=r"m\.csv: row 1, column 2: cannot parse 'abc'"):
        ingest_csv(mixed)
    text_header = write(tmp_path / "t.csv", "x one, y_2 \n1,2\n3,4\n")
    assert ingest_csv(text_header, center=False, standardize=False)[1].tolist() == \
        [[1.0, 2.0], [3.0, 4.0]]


def test_ingest_standardize_is_idempotent(tmp_path):
    rng = np.random.default_rng(0)
    data = rng.standard_normal((40, 3)) * [2.0, 0.5, 7.0] + [1.0, -3.0, 0.0]
    path = write(tmp_path / "d.csv",
                 "\n".join(",".join(repr(float(v)) for v in row)
                           for row in data) + "\n")
    stats, _ = ingest_csv(path, center=True, standardize=True)
    assert np.allclose(stats.data.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(stats.data.std(axis=0, ddof=1), 1.0, atol=1e-10)
    again = DatasetStats.from_data(stats.data, center=True, standardize=True)
    assert np.allclose(again.data, stats.data, atol=1e-12)


def test_ingest_scatter_matches_outer_product_sum(tmp_path):
    rng = np.random.default_rng(1)
    data = rng.standard_normal((12, 4))
    path = write(tmp_path / "d.csv",
                 "\n".join(",".join(repr(float(v)) for v in row)
                           for row in data) + "\n")
    stats, _ = ingest_csv(path, center=False, standardize=False)
    by_hand = np.zeros((4, 4))
    for row in data:
        by_hand += np.outer(row, row)
    assert np.allclose(stats.scatter, by_hand, atol=1e-12)
    assert np.array_equal(stats.scatter, stats.scatter.T)


def test_ingest_error_messages(tmp_path):
    bad_cell = write(tmp_path / "c.csv", "x,y\n1,2\n3,oops\n")
    with pytest.raises(ParseError, match=r"row 3, column 2.*'oops'"):
        ingest_csv(bad_cell)
    ragged = write(tmp_path / "r.csv", "1,2,3\n4,5\n")
    with pytest.raises(ParseError, match=r"row 2: expected 3 columns, got 2"):
        ingest_csv(ragged)
    empty = write(tmp_path / "e.csv", "\n\n")
    with pytest.raises(ParseError, match="no data"):
        ingest_csv(empty)
    header_only = write(tmp_path / "ho.csv", "a,b\n")
    with pytest.raises(ParseError, match="header only"):
        ingest_csv(header_only)
    one_row = write(tmp_path / "one.csv", "1,2\n")
    with pytest.raises(ParseError, match="at least 2 data rows"):
        ingest_csv(one_row)
    constant = write(tmp_path / "k.csv", "1,5\n2,5\n3,5\n")
    with pytest.raises(ZeroVarianceError, match=r"k\.csv: column 2 has zero variance"):
        ingest_csv(constant)
    for cell in ("nan", "inf", "-Infinity"):
        non_finite = write(tmp_path / "nf.csv", f"x,y\n1,2\n3,4\n5,{cell}\n")
        with pytest.raises(ParseError,
                           match=rf"nf\.csv: row 4, column 2: non-finite value '{cell}'"):
            ingest_csv(non_finite)


def test_ingest_reads_past_a_byte_order_mark(tmp_path):
    # the mark stuck to the first cell: a one-column file lost its first row
    # as a header, and a wider one stopped on "cannot parse '\ufeff1'"
    for text, want in (("1\n2\n4\n", [[1.0], [2.0], [4.0]]),
                       ("1,5\r\n2,3\r\n4,4\r\n", [[1.0, 5.0], [2.0, 3.0], [4.0, 4.0]]),
                       ("x\n2\n4\n", [[2.0], [4.0]])):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert ingest_csv(str(path))[1].tolist() == want


# ------------------------------------------------------------------ writers


def test_fmt_round_trips():
    assert fmt(True) == "true" and fmt(False) == "false"
    assert fmt(np.bool_(True)) == "true"
    assert fmt(3) == "3" and fmt(np.int64(-7)) == "-7"
    for x in (0.1, 1.0 / 3.0, 1e-300, 123456.789):
        assert float(fmt(x)) == x
    assert fmt("abc") == "abc"


def test_posterior_csv_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    raw = rng.standard_normal((25, 3))
    stats = DatasetStats.from_data(raw)
    table = exact_posterior(stats, Hyperparams(delta=1.0, tau=1.0))
    path = str(tmp_path / "post.csv")
    write_posterior_csv(path, table)
    pairs = read_posterior_csv(path, 3)
    assert [gid for gid, _ in pairs] == list(table.graph_ids)
    assert np.allclose([pr for _, pr in pairs], table.probs, rtol=0, atol=0)

    with pytest.raises(ParseError, match="missing graph_id/prob"):
        bad = write(tmp_path / "bad.csv", "a,b\n1,2\n")
        read_posterior_csv(bad, 3)
    with pytest.raises(ValueError):
        # IDs from a p=3 table overflow the single p=2 edge slot.
        read_posterior_csv(path, 2)


def test_writers_match_csv_writer(tmp_path):
    # Every table writer formats its rows directly; each must give the bytes
    # of csv.writer over fmt'd cells.
    rng = np.random.default_rng(4)
    data = rng.standard_normal((30, 4))
    stats = DatasetStats.from_data(data)
    hp = Hyperparams(delta=1.0, tau=0.5)
    table = exact_posterior(stats, hp)
    _, log = run_chain(Graph(4), 300, stats, hp, KernelConfig(), rng)
    fit = run_saem(stats, SaemConfig(n_iter=6, n_unit=2, m_first=10, m_rest=5, n_warm=1),
                   hp, rng)
    width = id_width(4)
    mixed = [(1, "0a", 2.5, True), (-3, "x", 1e-300, np.float64(0.1))]
    cases = [
        (write_posterior_csv, (table,), ("rank", "graph_id", "k_edges", "prob", "log_score"),
         [(rank + 1, format(gid, f"0{width}x"), Graph(4, gid).edge_count, pr, ls)
          for rank, (gid, pr, ls) in enumerate(zip(table.graph_ids, table.probs,
                                                   table.log_scores))]),
        (write_visit_log, (log,), ("step", "graph_id", "k_edges", "log_score", "accepted"),
         [(s, format(gid, f"0{width}x"), Graph(4, gid).edge_count, ls, int(a))
          for s, gid, ls, a in zip(log.steps, log.graph_ids, log.log_scores, log.accepted)]),
        (write_acceptance_trace, (log,), ("step", "acceptance_rate"),
         list(zip(log.steps, log.running_acceptance()))),
        (write_csv, (("a", "b", "c", "d"), mixed), ("a", "b", "c", "d"), mixed),
        (write_data_csv, (data,), [f"x{j + 1}" for j in range(4)], data),
        (write_saem_trace, (fit,), ("iter", "tau", "r", "s1", "s2", "s3", "accept_rate"),
         [(int(row[0]), *row[1:]) for row in fit.trace]),
    ]
    for writer, args, header, rows in cases:
        writer(str(tmp_path / "got.csv"), *args)
        with open(tmp_path / "want.csv", "w", newline="") as fh:
            ref = csv.writer(fh)
            ref.writerow(header)
            ref.writerows([fmt(v) for v in row] for row in rows)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes(), \
            writer.__name__


@pytest.mark.parametrize("rows, row, cell", [
    ("1,0,0,nan,0.0\n", 2, "nan"),
    ("1,1,1,inf,0.0\n", 2, "inf"),
    ("1,0,0,1.5,0.0\n2,1,1,-0.5,0.0\n", 3, "-0.5"),
], ids=["nan", "inf", "negative"])
def test_report_rejects_bad_probabilities(tmp_path, capsys, rows, row, cell):
    path = write(tmp_path / "post.csv",
                 "rank,graph_id,k_edges,prob,log_score\n" + rows)
    with pytest.raises(ParseError, match=f"post.csv: row {row}, column 4: "
                                         f"probability '{cell}'"):
        read_posterior_csv(path, 3)
    assert main(["report", "--table", path, "--p", "3",
                 "--out-dir", str(tmp_path / "r")]) == 2
    assert f"row {row}, column 4" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "r" / "top_graphs.csv")


def test_read_posterior_csv_counts_visit_log(tmp_path):
    path = write(tmp_path / "visits.csv",
                 "step,graph_id,k_edges,log_score,accepted\n"
                 "1,2,1,-3.0,1\n2,2,1,-3.0,0\n3,0,0,-4.0,1\n")
    assert read_posterior_csv(path, 3) == [(2, 2.0), (0, 1.0)]
    bad = write(tmp_path / "bad.csv",
                "step,graph_id\n1,zz\n")
    with pytest.raises(ParseError, match="row 2: malformed entry"):
        read_posterior_csv(bad, 3)


def test_report_rejects_table_of_other_p(tmp_path, capsys):
    # 8cc020f12 is a p=9 ID; under --p 10 it would read as other edges.
    path = write(tmp_path / "visits.csv",
                 "step,graph_id,k_edges,log_score,accepted\n"
                 "1,8cc020f12,9,-3.0,1\n")
    assert read_posterior_csv(path, 9) == [(0x8cc020f12, 1.0)]
    out = tmp_path / "r"
    assert main(["report", "--table", path, "--p", "10",
                 "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.strip() == (
        f"error: {path}: row 2: graph_id '8cc020f12' has 9 hex digits, "
        "as for p=9, not p=10")
    assert not os.path.exists(out / "top_graphs.csv")
    with pytest.raises(ParseError, match="row 2: .* as for p=1 or p=2 or p=3, not p=4"):
        read_posterior_csv(write(tmp_path / "p3.csv", "graph_id,prob\n5,1.0\n"), 4)


@pytest.mark.parametrize("p", [12, 32])
def test_inclusion_probs_match_bit_loop(p):
    # IDs wider than 64 bits; the sums must equal a per-bit loop exactly.
    rng = np.random.default_rng(p)
    ids = [random_decomposable_graph(p, rng, walk_steps=6 * p).edges for _ in range(40)]
    ids += [0, Graph.complete(p).edges]
    weights = rng.dirichlet(np.ones(len(ids))).tolist()
    want = np.zeros(n_candidate_edges(p))
    for gid, w in zip(ids, weights):
        for k in range(n_candidate_edges(p)):
            if gid >> k & 1:
                want[k] += w
    assert np.array_equal(cli._inclusion_probs(p, list(zip(ids, weights))), want)


@pytest.mark.parametrize("p", [1, 6, 25])
def test_inclusion_probs_match_add_at(p):
    # The sums equal np.add.at over every (graph, edge) pair, bit for bit,
    # with a zero weight and an edge that no graph holds.
    m = n_candidate_edges(p)
    rng = np.random.default_rng(60 + p)
    if p <= 6:
        ids = [gid for gid in _decomposable_families(p)[0].tolist() if not gid >> 2 & 1]
    else:
        ids = [random_decomposable_graph(p, rng, walk_steps=3 * p).edges for _ in range(60)]
    weights = rng.dirichlet(np.ones(len(ids)))
    weights[len(ids) // 2] = 0.0
    pairs = list(zip(ids, weights.tolist()))
    union = 0
    for gid in ids:
        union |= gid
    assert m == 0 or union != (1 << m) - 1
    rows, cols = np.nonzero([[gid >> k & 1 for k in range(m)] for gid in ids])
    want = np.zeros(m)
    np.add.at(want, cols, weights[rows])
    assert np.array_equal(cli._inclusion_probs(p, pairs), want)


def test_manifest_round_trip(tmp_path):
    path = str(tmp_path / "manifest.txt")
    write_manifest(path, {"command": "count", "p": 4, "tau": 0.5,
                          "center": True, "note": "x"})
    got = read_manifest(path)
    assert got == {"command": "count", "p": "4", "tau": "0.5",
                   "center": "true", "note": "x"}
    with open(path) as fh:
        keys = [line.split("=")[0] for line in fh if line.strip()]
    assert keys == sorted(keys)

    bad = write(tmp_path / "bad.txt", "command=count\njust a line\n")
    with pytest.raises(ParseError, match="line 2"):
        read_manifest(bad)
    commented = write(tmp_path / "ok.txt", "# comment\n\ncommand=count\np=3\n")
    assert read_manifest(commented) == {"command": "count", "p": "3"}


def test_config_from_manifest_round_trip():
    cfg = RunConfig(command="sample", data="d.csv", delta=2.0, tau=0.25,
                    kernel="alternate", n_steps=5000, n_burn=100, seed=9,
                    center=False, out_dir="somewhere")
    import dataclasses
    mapping = {k: fmt(v) for k, v in dataclasses.asdict(cfg).items()}
    mapping["numpy_version"] = "9.9.9"   # non-field keys are ignored
    assert config_from_manifest(mapping) == cfg
    with pytest.raises(ParseError, match="no command"):
        config_from_manifest({"p": "3"})
    with pytest.raises(ParseError, match="not a valid int"):
        config_from_manifest({"command": "count", "p": "many"})


def test_config_from_manifest_reads_bools():
    for value, spellings in ((True, ("true", "TRUE", "1", "Yes")),
                             (False, ("false", "False", "0", "NO"))):
        for text in spellings:
            cfg = config_from_manifest({"command": "sample", "center": text,
                                        "standardize": text})
            assert (cfg.center, cfg.standardize) == (value, value), text
    with pytest.raises(ParseError, match=r"center='garbage' is not a valid bool"):
        config_from_manifest({"command": "sample", "center": "garbage"})
    with pytest.raises(ParseError, match=r"standardize='' is not a valid bool"):
        config_from_manifest({"command": "sample", "standardize": ""})


def test_run_config_validation():
    with pytest.raises(ValueError, match="unknown command"):
        RunConfig(command="bogus")
    with pytest.raises(ValueError, match="seed"):
        RunConfig(command="count", seed=-1)
    with pytest.raises(ValueError, match="top_k"):
        RunConfig(command="count", top_k=0)


# (flag, dest, default, type, required) of every option of each subcommand.
_DATA_OPTIONS = [("--data", "data", None, None, True),
                 ("--no-center", "center", True, None, False),
                 ("--no-standardize", "standardize", True, None, False)]
_MODEL_OPTIONS = [("--delta", "delta", 1.0, "float", False),
                  ("--phi-mode", "phi_mode", "scaled_identity", "str", False),
                  ("--tau", "tau", 1.0, "float", False),
                  ("--graph-prior", "graph_prior", "bernoulli", "str", False),
                  ("--r", "r", 0.5, "float", False)]
_OUT_DIR = ("--out-dir", "out_dir", "", "str", False)
PARSER_OPTIONS = {
    "fit": _DATA_OPTIONS + [
        ("--delta", "delta", 1.0, "float", False),
        ("--graph-prior", "graph_prior", "bernoulli", "str", False),
        ("--kernel", "kernel", "auto", "str", False),
        ("--n-iter", "n_iter", 300, "int", False),
        ("--n-unit", "n_unit", 100, "int", False),
        ("--m-first", "m_first", 500, "int", False),
        ("--m-rest", "m_rest", 10, "int", False),
        ("--n-warm", "n_warm", 5, "int", False),
        ("--init-tau", "init_tau", 0.001, "float", False),
        ("--init-r", "init_r", 0.5, "float", False),
        ("--seed", "seed", 0, "int", False), _OUT_DIR],
    "sample": _DATA_OPTIONS + _MODEL_OPTIONS + [
        ("--kernel", "kernel", "auto", "str", False),
        ("--n-steps", "n_steps", 100000, "int", False),
        ("--n-burn", "n_burn", 10000, "int", False),
        ("--top-k", "top_k", 10, "int", False),
        ("--seed", "seed", 0, "int", False), _OUT_DIR],
    "exact": _DATA_OPTIONS + _MODEL_OPTIONS + [
        ("--top-k", "top_k", 10, "int", False), _OUT_DIR],
    "count": [("--p", "p", 0, "int", False), _OUT_DIR],
    "simulate": [("--p", "p", 0, "int", False),
                 ("--graph", "graph", "", "str", False),
                 ("--tau", "tau", 1.0, "float", False),
                 ("--delta", "delta", 1.0, "float", False),
                 ("--n", "n", 100, "int", False),
                 ("--seed", "seed", 0, "int", False), _OUT_DIR],
    "report": [("--table", "table", "", "str", False),
               ("--p", "p", 0, "int", False),
               ("--top-k", "top_k", 10, "int", False), _OUT_DIR],
    "rerun": [("manifest", "manifest", None, None, True),
              ("--out-dir", "out_dir", "", None, False)],
}


def subcommand_parsers():
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_parser_subcommands_in_order():
    assert list(subcommand_parsers()) == list(PARSER_OPTIONS)


@pytest.mark.parametrize("command", list(PARSER_OPTIONS))
def test_parser_options_snapshot(command, capsys):
    got = [(a.option_strings[0] if a.option_strings else a.dest, a.dest,
            a.default, a.type and a.type.__name__, a.required)
           for a in subcommand_parsers()[command]._actions
           if not isinstance(a, argparse._HelpAction)]
    assert got == PARSER_OPTIONS[command]
    with pytest.raises(SystemExit) as exit_:
        main([command, "--help"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: ebggm {command}")


# ----------------------------------------------------------------- commands


def test_cli_count(tmp_path, capsys):
    out = str(tmp_path / "run")
    assert main(["count", "--p", "4", "--out-dir", out]) == 0
    captured = capsys.readouterr()
    assert captured.out.strip() == "p=4 total=64 decomposable=61"
    with open(os.path.join(out, "counts.txt")) as fh:
        assert fh.read().strip() == "p=4 total=64 decomposable=61"
    manifest = read_manifest(os.path.join(out, "manifest.txt"))
    assert manifest["command"] == "count"
    assert manifest["p"] == "4"
    assert "numpy_version" in manifest and "package_version" in manifest


def test_cli_simulate_then_ingest_round_trip(tmp_path, capsys):
    out = str(tmp_path / "sim")
    assert main(["simulate", "--graph", "complete", "--p", "3", "--n", "30",
                 "--seed", "5", "--out-dir", out]) == 0
    msg = capsys.readouterr().out
    assert "graph_id=" in msg
    data_path = os.path.join(out, "data.csv")
    stats, raw = ingest_csv(data_path, center=False, standardize=False)
    assert raw.shape == (30, 3)
    assert np.allclose(stats.scatter, raw.T @ raw, atol=1e-12)
    assert os.path.exists(os.path.join(out, "truth.dot"))
    manifest = read_manifest(os.path.join(out, "manifest.txt"))
    assert manifest["graph_id"] == Graph.complete(3).id_hex
    assert manifest["p"] == "3"


def test_cli_simulate_rejects_p_mismatch(tmp_path, capsys):
    out = str(tmp_path / "sim")
    code = main(["simulate", "--graph", "figure1", "--p", "4",
                 "--out-dir", out])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "p=9" in err


@pytest.fixture()
def small_csv(tmp_path):
    out = str(tmp_path / "gen")
    assert main(["simulate", "--graph", "complete", "--p", "3", "--n", "40",
                 "--tau", "1.0", "--seed", "11", "--out-dir", out]) == 0
    return os.path.join(out, "data.csv")


def test_cli_exact_and_report_agree(tmp_path, capsys, small_csv):
    out_exact = str(tmp_path / "exact")
    assert main(["exact", "--data", small_csv, "--tau", "0.5",
                 "--top-k", "5", "--out-dir", out_exact]) == 0
    top_line = capsys.readouterr().out.strip().splitlines()[-1]
    assert top_line.startswith("top1_graph=")
    pairs = read_posterior_csv(os.path.join(out_exact, "posterior.csv"), 3)
    assert sum(pr for _, pr in pairs) == pytest.approx(1.0, abs=1e-9)

    # Rendering the stored table reproduces the report artifacts exactly,
    # including the already-normalized probabilities (no renormalization).
    out_report = str(tmp_path / "report")
    assert main(["report", "--table", os.path.join(out_exact, "posterior.csv"),
                 "--p", "3", "--top-k", "5", "--out-dir", out_report]) == 0
    for name in ("top_graphs.csv", "edge_marginals.csv", "report.txt",
                 "top_1.dot"):
        assert filecmp.cmp(os.path.join(out_exact, name),
                           os.path.join(out_report, name), shallow=False), name


def test_cli_sample_and_rerun_bit_identical(tmp_path, capsys, small_csv):
    out_a = str(tmp_path / "a")
    assert main(["sample", "--data", small_csv, "--n-steps", "2000",
                 "--n-burn", "200", "--kernel", "alternate", "--seed", "3",
                 "--out-dir", out_a]) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert line.startswith("steps=2000 accept_rate=")

    out_b = str(tmp_path / "b")
    assert main(["rerun", os.path.join(out_a, "manifest.txt"),
                 "--out-dir", out_b]) == 0
    for name in ("visits.csv", "acceptance.csv", "top_graphs.csv",
                 "edge_marginals.csv", "report.txt"):
        assert filecmp.cmp(os.path.join(out_a, name),
                           os.path.join(out_b, name), shallow=False), name
    # The manifests differ only in their out_dir line.
    ma = read_manifest(os.path.join(out_a, "manifest.txt"))
    mb = read_manifest(os.path.join(out_b, "manifest.txt"))
    assert ma.pop("out_dir") == out_a and mb.pop("out_dir") == out_b
    assert ma == mb
    assert ma["data_sha256"] == sha256_of(small_csv)


def test_failed_run_leaves_no_manifest(tmp_path, capsys, small_csv, monkeypatch):
    out = str(tmp_path / "a")
    assert main(["sample", "--data", small_csv, "--n-steps", "50",
                 "--n-burn", "0", "--seed", "3", "--out-dir", out]) == 0
    manifest = os.path.join(out, "manifest.txt")
    assert os.path.exists(manifest)

    # A run that fails before writing anything keeps the earlier manifest.
    assert main(["report", "--table", os.path.join(out, "visits.csv"),
                 "--p", "4", "--out-dir", out]) == 2
    assert "not p=4" in capsys.readouterr().err
    assert os.path.exists(manifest)

    def broken_writer(path, log):
        raise OSError(f"{path}: no space left on device")

    # An in-place rerun that dies after writing visits.csv.
    monkeypatch.setattr(cli, "write_acceptance_trace", broken_writer)
    assert main(["rerun", manifest]) == 2
    assert "no space left" in capsys.readouterr().err
    assert os.path.exists(os.path.join(out, "visits.csv"))
    assert not os.path.exists(manifest)


def test_cli_rerun_rejects_changed_inputs(tmp_path, capsys, small_csv):
    out_a = str(tmp_path / "a")
    assert main(["sample", "--data", small_csv, "--n-steps", "50",
                 "--n-burn", "0", "--seed", "3", "--out-dir", out_a]) == 0
    out_r = str(tmp_path / "r")
    assert main(["report", "--table", os.path.join(out_a, "visits.csv"),
                 "--p", "3", "--out-dir", out_r]) == 0
    capsys.readouterr()
    recorded = sha256_of(small_csv)

    # Change one digit of the data rows: the rerun must refuse to start.
    with open(small_csv, "rb") as fh:
        original = fh.read()
    digit = next(i for i in range(original.index(b"\n"), len(original))
                 if original[i:i + 1].isdigit())
    edited = bytearray(original)
    edited[digit] = ord("1") if original[digit] != ord("1") else ord("2")
    with open(small_csv, "wb") as fh:
        fh.write(edited)
    out_b = str(tmp_path / "b")
    assert main(["rerun", os.path.join(out_a, "manifest.txt"),
                 "--out-dir", out_b]) == 2
    err = capsys.readouterr().err
    assert err.strip() == (f"error: {small_csv}: sha256 mismatch "
                           f"(manifest {recorded}, file {sha256_of(small_csv)})")
    assert not os.path.exists(os.path.join(out_b, "visits.csv"))

    # The report's table checksum is checked the same way.
    with open(os.path.join(out_a, "visits.csv"), "a") as fh:
        fh.write("51,0,0,0.0,0\n")
    assert main(["rerun", os.path.join(out_r, "manifest.txt"),
                 "--out-dir", str(tmp_path / "r2")]) == 2
    assert "visits.csv: sha256 mismatch (manifest " in capsys.readouterr().err

    # Restoring the data makes the sample run reproducible again.
    with open(small_csv, "wb") as fh:
        fh.write(original)
    assert main(["rerun", os.path.join(out_a, "manifest.txt"),
                 "--out-dir", out_b]) == 0
    assert filecmp.cmp(os.path.join(out_a, "top_graphs.csv"),
                       os.path.join(out_b, "top_graphs.csv"), shallow=False)


def test_cli_rerun_names_the_manifest_of_an_unreadable_input(tmp_path, capsys,
                                                            small_csv, monkeypatch):
    # A manifest without cwd= (from before runs recorded it) has its input
    # paths read as given, so a run made with relative paths cannot be rerun
    # from another directory; the error says which manifest and key recorded
    # the path.
    work, elsewhere = tmp_path / "work", tmp_path / "elsewhere"
    work.mkdir()
    elsewhere.mkdir()
    with open(small_csv, "rb") as src, open(work / "d.csv", "wb") as dst:
        dst.write(src.read())
    monkeypatch.chdir(work)
    assert main(["sample", "--data", "d.csv", "--n-steps", "50", "--n-burn", "0",
                 "--seed", "3", "--out-dir", "s"]) == 0
    assert main(["report", "--table", "s/visits.csv", "--p", "3",
                 "--out-dir", "r"]) == 0
    capsys.readouterr()
    monkeypatch.chdir(elsewhere)
    for manifest, field, path in ((work / "s" / "manifest.txt", "data", "d.csv"),
                                  (work / "r" / "manifest.txt", "table", "s/visits.csv")):
        mapping = read_manifest(manifest)
        assert mapping.pop("cwd") == str(work)
        write_manifest(manifest, mapping)
        assert main(["rerun", str(manifest), "--out-dir", "again"]) == 2
        assert capsys.readouterr().err.strip() == (
            f"error: manifest {manifest} records {field}={path}, which cannot be "
            f"read: [Errno 2] No such file or directory: '{path}'")
    assert not os.path.exists("again")


def test_cli_rerun_reads_relative_inputs_from_the_recorded_cwd(tmp_path, capsys,
                                                              small_csv, monkeypatch):
    # A run records cwd=, and a rerun from any directory reads the run's
    # relative inputs from there; without cwd= it reads them as given.
    sub = tmp_path / "sub"
    sub.mkdir()
    with open(small_csv, "rb") as src, open(tmp_path / "uniq.csv", "wb") as dst:
        dst.write(src.read())
    monkeypatch.chdir(sub)
    assert main(["sample", "--data", "../uniq.csv", "--n-steps", "300", "--n-burn", "20",
                 "--seed", "3", "--out-dir", "run1"]) == 0
    assert main(["report", "--table", "run1/visits.csv", "--p", "3",
                 "--out-dir", "rep1"]) == 0
    assert read_manifest(sub / "run1" / "manifest.txt")["cwd"] == str(sub)
    monkeypatch.chdir(tmp_path)
    assert main(["rerun", "sub/run1/manifest.txt"]) == 0
    assert main(["rerun", "sub/rep1/manifest.txt", "--out-dir", "rep2"]) == 0
    assert filecmp.cmp(sub / "run1" / "visits.csv", tmp_path / "run1" / "visits.csv",
                       shallow=False)
    assert filecmp.cmp(sub / "rep1" / "top_graphs.csv", tmp_path / "rep2" / "top_graphs.csv",
                       shallow=False)
    # The rerun's own manifest records where it read its input.
    again = read_manifest(tmp_path / "run1" / "manifest.txt")
    assert again["data"] == os.path.join(str(sub), "../uniq.csv")
    assert again["cwd"] == str(tmp_path)

    # A manifest with its cwd= line removed reruns as before, from the run's
    # own directory.
    manifest = sub / "run1" / "manifest.txt"
    mapping = read_manifest(manifest)
    del mapping["cwd"]
    write_manifest(manifest, mapping)
    monkeypatch.chdir(sub)
    assert main(["rerun", str(manifest), "--out-dir", "run2"]) == 0
    assert filecmp.cmp(sub / "run1" / "visits.csv", sub / "run2" / "visits.csv",
                       shallow=False)

    # An input gone from the recorded directory is named with that directory.
    os.remove(tmp_path / "uniq.csv")
    capsys.readouterr()
    assert main(["rerun", "run2/manifest.txt", "--out-dir", "run3"]) == 2
    path = os.path.join(str(sub), "../uniq.csv")
    assert capsys.readouterr().err.strip() == (
        f"error: manifest run2/manifest.txt records data={path}, which cannot be "
        f"read: [Errno 2] No such file or directory: '{path}'")


def test_cli_rerun_warns_on_version_drift(tmp_path, capsys):
    out_a = str(tmp_path / "a")
    assert main(["count", "--p", "3", "--out-dir", out_a]) == 0
    path = os.path.join(out_a, "manifest.txt")
    mapping = read_manifest(path)
    running = mapping["numpy_version"]
    mapping["numpy_version"] = "0.0.1"
    write_manifest(path, mapping)
    capsys.readouterr()

    out_b = str(tmp_path / "b")
    assert main(["rerun", path, "--out-dir", out_b]) == 0
    captured = capsys.readouterr()
    assert captured.err == (f"warning: manifest numpy_version=0.0.1, "
                            f"running {running}\n")
    assert captured.out.strip() == "p=3 total=8 decomposable=8"
    assert filecmp.cmp(os.path.join(out_a, "counts.txt"),
                       os.path.join(out_b, "counts.txt"), shallow=False)


def test_cli_rerun_ignores_recorded_scipy_version(tmp_path, capsys):
    # Manifests written before numpy became the only dependency carry a
    # scipy_version; a rerun neither needs scipy nor warns about it.
    out_a = str(tmp_path / "a")
    assert main(["count", "--p", "3", "--out-dir", out_a]) == 0
    path = os.path.join(out_a, "manifest.txt")
    mapping = read_manifest(path)
    assert "scipy_version" not in mapping
    mapping["scipy_version"] = "0.0.1"
    write_manifest(path, mapping)
    capsys.readouterr()

    assert main(["rerun", path, "--out-dir", str(tmp_path / "b")]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.strip() == "p=3 total=8 decomposable=8"


def test_cli_rerun_of_a_manifest_that_records_the_weight_floor(tmp_path, capsys, small_csv):
    # Manifests written while the floor was an option record weight_floor=;
    # one at the floor now in use reruns to the same artifacts, and any other
    # floor stops the rerun.
    out_a = str(tmp_path / "a")
    assert main(["sample", "--data", small_csv, "--n-steps", "500", "--n-burn", "50",
                 "--kernel", "alternate", "--seed", "3", "--out-dir", out_a]) == 0
    path = os.path.join(out_a, "manifest.txt")
    mapping = read_manifest(path)
    assert "weight_floor" not in mapping
    mapping["weight_floor"] = "1e-12"
    write_manifest(path, mapping)
    capsys.readouterr()
    out_b = str(tmp_path / "b")
    assert main(["rerun", path, "--out-dir", out_b]) == 0
    for name in ("visits.csv", "acceptance.csv", "top_graphs.csv"):
        assert filecmp.cmp(os.path.join(out_a, name),
                           os.path.join(out_b, name), shallow=False), name
    for floor, why in (("0.5", "is not 1e-12, the only weight floor of this version"),
                       ("1e-13", "is not 1e-12, the only weight floor of this version"),
                       ("nan", "is not 1e-12, the only weight floor of this version"),
                       ("x", "is not a valid float")):
        mapping["weight_floor"] = floor
        write_manifest(path, mapping)
        capsys.readouterr()
        assert main(["rerun", path, "--out-dir", str(tmp_path / "c")]) == 2
        assert capsys.readouterr().err.strip() == \
            f"error: manifest entry weight_floor={floor!r} {why}"
    assert not os.path.exists(tmp_path / "c")


NO_SCIPY_SCRIPT = """
import os, sys
import ebggm, ebggm.cli
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
sys.modules["scipy"] = None  # any later scipy import fails
out = sys.argv[1]
data = os.path.join(out, "sim", "data.csv")
small = os.path.join(out, "small", "data.csv")
runs = [
    ["simulate", "--graph", "bench9", "--n", "60", "--seed", "2", "--out-dir", out + "/sim"],
    ["simulate", "--graph", "complete", "--p", "4", "--n", "40", "--seed", "3",
     "--out-dir", out + "/small"],
    ["fit", "--data", data, "--n-iter", "4", "--n-unit", "2", "--m-first", "20",
     "--m-rest", "10", "--n-warm", "10", "--out-dir", out + "/fit"],
    ["sample", "--data", data, "--kernel", "alternate", "--n-steps", "200",
     "--n-burn", "20", "--out-dir", out + "/sample"],
    ["exact", "--data", small, "--out-dir", out + "/exact"],
    ["report", "--table", out + "/exact/posterior.csv", "--p", "4",
     "--out-dir", out + "/report"],
    ["count", "--p", "4", "--out-dir", out + "/count"],
    ["rerun", out + "/sample/manifest.txt", "--out-dir", out + "/rerun"],
]
for argv in runs:
    assert ebggm.cli.main(argv) == 0, argv
"""


def test_cli_runs_without_scipy(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, str(tmp_path)],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert filecmp.cmp(tmp_path / "sample" / "visits.csv",
                       tmp_path / "rerun" / "visits.csv", shallow=False)


def test_cli_sample_looks_up_moves_once_per_proposal(tmp_path, capsys, small_csv,
                                                     monkeypatch, move_lookups):
    # Burn-in and main run share one start; the cache sees nothing but that
    # start and the proposals the pre-test passes on.
    monkeypatch.setattr(sampler, "MoveCache", move_lookups.cache)
    assert main(["sample", "--data", small_csv, "--n-steps", "300", "--n-burn", "100",
                 "--seed", "2", "--out-dir", str(tmp_path / "s")]) == 0
    capsys.readouterr()
    assert len(move_lookups.made) == 400
    assert len(move_lookups.caches) == 1
    assert move_lookups.caches[0].calls == 1 + move_lookups.looked_up


def test_cli_report_from_visit_log(tmp_path, capsys, small_csv):
    out_s = str(tmp_path / "s")
    assert main(["sample", "--data", small_csv, "--n-steps", "500",
                 "--n-burn", "50", "--seed", "8", "--out-dir", out_s]) == 0
    capsys.readouterr()
    out_r = str(tmp_path / "r")
    assert main(["report", "--table", os.path.join(out_s, "visits.csv"),
                 "--p", "3", "--out-dir", out_r]) == 0
    assert filecmp.cmp(os.path.join(out_s, "top_graphs.csv"),
                       os.path.join(out_r, "top_graphs.csv"), shallow=False)


def test_cli_report_reads_graph_ids_as_hex_digits_only(tmp_path, capsys):
    # Each ID has the 9 digits of a p=9 graph, and int(text, 16) would read
    # it as a graph the chain never wrote.
    for gid in ("4dc42_f03", "+dc422f03", "0x1dc422f"):
        table = write(tmp_path / "visits.csv", "step,graph_id,k_edges,log_score,accepted\n"
                      f"1,{gid},17,-3.0,1\n")
        assert main(["report", "--table", table, "--p", "9",
                     "--out-dir", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err.strip() == f"error: {table}: row 2: malformed entry"


def test_cli_sample_of_one_step_writes_a_float_probability(tmp_path, capsys,
                                                             small_csv):
    out = tmp_path / "one"
    assert main(["sample", "--data", small_csv, "--n-steps", "1", "--n-burn", "0",
                 "--out-dir", str(out)]) == 0
    with open(out / "top_graphs.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 2 and rows[1][0] == "1" and rows[1][3] == "1.0"
    assert (out / "report.txt").read_text().splitlines()[2].endswith(" 1.0")


def test_cli_report_renormalizes_only_tables_off_one(tmp_path, capsys):
    # 0.3999999995 + 0.6 is within 1e-9 of one, so the probabilities are
    # written as the table gives them; a table summing to 2 is halved.
    for probs, want in (((0.3999999995, 0.6), ["0.6", "0.3999999995"]),
                        ((0.8, 1.2), ["0.6", "0.4"])):
        table = write(tmp_path / "posterior.csv",
                      "rank,graph_id,k_edges,prob,log_score\n"
                      f"1,1,1,{probs[0]!r},-3.0\n2,3,2,{probs[1]!r},-2.0\n")
        out = tmp_path / "r"
        assert main(["report", "--table", table, "--p", "3",
                     "--out-dir", str(out)]) == 0
        assert capsys.readouterr().out.strip() == f"top1_graph=3 top1_prob={want[0]}"
        with open(out / "top_graphs.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert rows == [["1", "3", "2", want[0]], ["2", "1", "1", want[1]]]


def test_cli_fit_smoke(tmp_path, capsys, small_csv):
    out = str(tmp_path / "fit")
    assert main(["fit", "--data", small_csv, "--n-iter", "8", "--n-unit", "3",
                 "--m-first", "20", "--m-rest", "5", "--n-warm", "1",
                 "--seed", "4", "--out-dir", out]) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert line.startswith("tau_hat=") and " r_hat=" in line
    with open(os.path.join(out, "saem_trace.csv")) as fh:
        rows = fh.read().strip().splitlines()
    assert rows[0] == "iter,tau,r,s1,s2,s3,accept_rate"
    assert len(rows) == 1 + 8
    manifest = read_manifest(os.path.join(out, "manifest.txt"))
    assert manifest["kernel"] == "alternate"       # resolved from "auto"
    assert manifest["phi_mode"] == "scaled_identity"
    with open(os.path.join(out, "summary.txt")) as fh:
        summary = dict(line.split("=", 1) for line in fh.read().splitlines())
    assert set(summary) == {"tau_hat", "r_hat", "init_graph", "final_graph",
                            "tail_accept_rate"}
    assert float(summary["tau_hat"]) > 0


def test_cli_out_dir_environment_fallback(tmp_path, capsys, monkeypatch):
    env_dir = str(tmp_path / "from_env")
    monkeypatch.setenv("EBGGM_OUT_DIR", env_dir)
    assert main(["count", "--p", "3"]) == 0
    capsys.readouterr()
    assert os.path.exists(os.path.join(env_dir, "counts.txt"))


def test_cli_error_paths(tmp_path, capsys, small_csv):
    out = str(tmp_path / "x")
    # Unknown graph token.
    assert main(["simulate", "--graph", "nosuch", "--p", "3",
                 "--out-dir", out]) == 2
    assert capsys.readouterr().err.startswith("error:")
    # Missing data file.
    assert main(["exact", "--data", str(tmp_path / "missing.csv"),
                 "--out-dir", out]) == 2
    assert capsys.readouterr().err.startswith("error:")
    # Manifest without a command entry.
    bad = write(tmp_path / "m.txt", "p=3\n")
    assert main(["rerun", bad, "--out-dir", out]) == 2
    assert "command" in capsys.readouterr().err
    # Count with a vertex count below 1.
    assert main(["count", "--p", "-1", "--out-dir", out]) == 2
    assert capsys.readouterr().err.strip() == "error: p must be at least 1, got -1"
    # Bad sample and exact settings name their option before the (missing)
    # data file is read.
    missing = str(tmp_path / "missing.csv")
    kernels = "('auto', 'add_delete', 'data_driven', 'alternate')"
    for cmd, args, msg in (
            ("sample", ("--n-steps", "-1"), "--n-steps must be at least 1, got -1"),
            ("sample", ("--n-steps", "0"), "--n-steps must be at least 1, got 0"),
            ("sample", ("--n-burn", "-3"), "--n-burn must be nonnegative, got -3"),
            ("sample", ("--kernel", "swap"), f"--kernel must be one of {kernels}, got 'swap'"),
            ("sample", ("--tau", "0"), "tau must be positive, got 0.0"),
            ("sample", ("--r", "2"), "r must lie in (0, 1), got 2.0"),
            ("sample", ("--graph-prior", "foo"), "graph_prior must be one of "
             "('bernoulli', 'beta_binomial', 'uniform'), got 'foo'"),
            ("exact", ("--tau", "0"), "tau must be positive, got 0.0"),
            ("exact", ("--r", "2"), "r must lie in (0, 1), got 2.0"),
            ("exact", ("--phi-mode", "foo"), "phi_mode must be one of "
             "('scaled_identity', 'empirical_gprior'), got 'foo'"),
            ("sample", ("--tau", "inf"), "tau must be finite, got inf"),
            ("sample", ("--delta", "inf"), "delta must be finite, got inf"),
            ("exact", ("--tau", "inf"), "tau must be finite, got inf"),
            ("exact", ("--delta", "inf"), "delta must be finite, got inf")):
        assert main([cmd, "--data", missing, *args, "--out-dir", out]) == 2
        assert capsys.readouterr().err.strip() == f"error: {msg}"
    # The weight floor of the weighted kernel is a constant, not an option.
    for cmd in ("sample", "fit"):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--data", missing, "--weight-floor", "0.5", "--out-dir", out])
        assert exc.value.code == 2
        assert "unrecognized arguments: --weight-floor 0.5" in capsys.readouterr().err
    # Bad simulate settings are named before anything is drawn.
    for args, msg in (
            (("--tau", "-1"), "tau must be positive, got -1.0"),
            (("--delta", "0"), "delta must be positive, got 0.0"),
            (("--tau", "inf"), "tau must be finite, got inf")):
        assert main(["simulate", "--graph", "bench9", *args, "--out-dir", out]) == 2
        assert capsys.readouterr().err.strip() == f"error: {msg}"
    # A report --p outside 1..32 is named before the (missing) table is read.
    for p in ("40", "-2"):
        assert main(["report", "--table", missing, "--p", p, "--out-dir", out]) == 2
        assert capsys.readouterr().err.strip() == f"error: --p must be in 1..32, got {p}"
    # Bad fit settings name their field and value.
    for args, msg in (
            (("--n-iter", "50"), "need 0 <= n_unit < n_iter, got n_unit=100, n_iter=50 "
             "(n_unit defaults to 100, so a fit of 100 or fewer iterations needs a lower "
             "--n-unit)"),
            (("--m-rest", "0"), "m_rest must be at least 1, got 0"),
            (("--n-warm", "-1"), "n_warm must be nonnegative, got -1"),
            (("--init-tau", "0"), "init_tau must be positive, got 0.0"),
            (("--init-tau", "inf"), "init_tau must be finite, got inf"),
            (("--delta", "inf"), "delta must be finite, got inf"),
            (("--kernel", "swap"), f"--kernel must be one of {kernels}, got 'swap'")):
        assert main(["fit", "--data", small_csv, *args, "--out-dir", out]) == 2
        assert capsys.readouterr().err.strip() == f"error: {msg}"
    # SAEM on one column names p.
    one = write(tmp_path / "one.csv", "x1\n0.3\n-1.2\n0.8\n")
    assert main(["fit", "--data", one, "--out-dir", out]) == 2
    assert capsys.readouterr().err.strip() == \
        "error: SAEM needs at least 2 variables, got p=1"
    # Report on a table without a graph_id column.
    table = write(tmp_path / "t.csv", "a,b\n1,2\n")
    assert main(["report", "--table", table, "--p", "3",
                 "--out-dir", out]) == 2
    assert "graph_id" in capsys.readouterr().err
    # Report on a graph ID with an edge beyond those of p.
    table = write(tmp_path / "f.csv", "graph_id,prob\nf,1.0\n")
    assert main(["report", "--table", table, "--p", "3",
                 "--out-dir", out]) == 2
    assert capsys.readouterr().err.strip() == \
        f"error: {table}: row 2: graph_id 'f' is out of range for p=3"
    # Missing required --data aborts argument parsing.
    with pytest.raises(SystemExit):
        main(["sample"])
    capsys.readouterr()
    # No subcommand prints help and fails.
    assert main([]) == 2


def test_cli_names_the_file_of_too_wide_data(tmp_path, capsys):
    wide = str(tmp_path / "wide.csv")
    write_data_csv(wide, np.random.default_rng(4).standard_normal((50, 40)))
    for cmd in ("sample", "fit"):
        assert main([cmd, "--data", wide, "--out-dir", str(tmp_path / cmd)]) == 2
        assert capsys.readouterr().err.strip() == \
            f"error: {wide}: 40 columns, but at most 32 variables are supported"


def test_cli_names_the_matrix_that_is_not_spd(tmp_path, capsys):
    # Four equal rows of 2s, kept raw: S = 16 * ones(6, 6) has rank one, and
    # Cholesky meets an exact zero pivot in Phi = S / n = 4 * ones and in
    # Phi + S = S + 1e-300 * I, which rounds to S.
    data = write(tmp_path / "rank_one.csv", "2,2,2,2,2,2\n" * 4)
    for args, which, mode, tau in (
            (("--tau", "1e-300"), "Phi + scatter", "scaled_identity", "1e-300"),
            (("--phi-mode", "empirical_gprior"), "Phi", "empirical_gprior", "1.0")):
        assert main(["sample", "--data", data, "--no-center", "--no-standardize",
                     *args, "--n-steps", "10", "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.strip() == (
            f"error: {which} is not symmetric positive definite "
            f"(phi_mode={mode}, tau={tau}, n=4, p=6)")


def write_scaled_normal(path, scale, column=None):
    """30 x 5 standard-normal data times scale, in one column or in all."""
    data = np.random.default_rng(30).standard_normal((30, 5))
    if column is None:
        data *= scale
    else:
        data[:, column] *= scale
    write_data_csv(path, data)
    return str(path)


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_cli_standardizes_data_at_extreme_scales(tmp_path, capsys, scale):
    # At 1e200 the squares in the sd overflowed and the run wrote the
    # posterior of an all-zero scatter with exit 0; at 1e-200 they
    # underflowed and the run stopped with "column 0 has zero variance".
    path = write_scaled_normal(tmp_path / "d.csv", scale)
    plain = write_scaled_normal(tmp_path / "plain.csv", 1.0)
    stats, plain_stats = ingest_csv(path)[0], ingest_csv(plain)[0]
    assert np.allclose(stats.scatter, plain_stats.scatter, rtol=1e-12, atol=1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sample", "--data", path, "--n-steps", "200", "--n-burn", "0",
                     "--seed", "1", "--out-dir", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_cli_names_the_column_of_unstandardized_data_out_of_range(tmp_path, capsys, scale):
    # The scatter of raw data at 1e200 overflows: fit and exact used to stop
    # with numpy's "Eigenvalues did not converge", after an overflow warning.
    # At 1e-200 it underflows to zero, and every command ran on the prior.
    path = write_scaled_normal(tmp_path / "d.csv", scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for cmd in (["fit", "--n-iter", "5", "--n-unit", "2"], ["exact"], ["sample"]):
            assert main([*cmd, "--data", path, "--no-standardize",
                         "--out-dir", str(tmp_path / cmd[0])]) == 2
            assert capsys.readouterr().err.strip() == (
                f"error: {path}: column 1: centering or squaring it leaves the "
                "floating-point range; rescale the data")
    third = write_scaled_normal(tmp_path / "third.csv", scale, column=2)
    with pytest.raises(NonFiniteError, match=r"third\.csv: column 3: centering"):
        ingest_csv(third, standardize=False)
    raw = np.loadtxt(third, delimiter=",", skiprows=1)
    with pytest.raises(NonFiniteError, match=r"^column 3: centering"):
        DatasetStats.from_data(raw, standardize=False)
    assert main(["sample", "--data", third, "--n-steps", "200",
                 "--out-dir", str(tmp_path / "std")]) == 0


def test_from_data_scales_columns_before_centering():
    # the first column's sum overflowed while centering, so data that
    # standardize to ordinary values stopped with NonFiniteError
    raw = np.array([[1.7e308, 1.0], [-1.7e308, 2.0], [1e308, 3.0]])
    stats = DatasetStats.from_data(raw)
    assert np.all(np.isfinite(stats.scatter))
    assert np.array_equal(stats.scatter, DatasetStats.from_data(raw * 2.0 ** -1000).scatter)
    assert np.allclose(stats.scatter.diagonal(), 2.0, rtol=1e-15)
    with pytest.raises(NonFiniteError, match=r"^column 1: centering"):
        DatasetStats.from_data(raw, standardize=False)


def test_run_command_requires_inputs(tmp_path):
    with pytest.raises(ValueError, match="--p"):
        run_command(RunConfig(command="count", out_dir=str(tmp_path / "c")))
    with pytest.raises(ValueError, match="--graph"):
        run_command(RunConfig(command="simulate", out_dir=str(tmp_path / "s")))
    with pytest.raises(ValueError, match="--data"):
        run_command(RunConfig(command="fit", out_dir=str(tmp_path / "f")))
    with pytest.raises(ValueError, match="--table"):
        run_command(RunConfig(command="report", out_dir=str(tmp_path / "r")))
