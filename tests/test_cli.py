import filecmp
import itertools
import json
import math
from pathlib import Path

import pytest

from cotypelab import (
    GridFunction,
    NotFoundError,
    TorusDomain,
    b_functionals,
    load_metric_space,
)
from cotypelab import cli
from cotypelab.cli import (
    COMMANDS,
    TABLE,
    ExperimentConfig,
    config_from_args,
    main,
    run,
)
from cotypelab.errors import SchemaViolationError, UnknownCommandError


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out.strip() else None
    return code, doc, captured.err


def test_gamma_hilbert_stdout(capsys):
    code, doc, err = run_main(capsys, ["gamma-hilbert", "--n", "2", "--m", "4"])
    assert code == 0
    assert doc["results"]["gamma"] == pytest.approx(3.0 / (4.0 * math.sqrt(2)))
    assert doc["results"]["argmax_frequency"] == [1, 1]
    assert doc["command"] == "gamma-hilbert"
    assert "runtime:" in err
    assert "runtime" not in doc  # wall time never enters the report


def test_reports_are_byte_identical(tmp_path, capsys):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    for path in (a, b):
        code, _, _ = run_main(capsys, ["verify", "--suite", "harmonic",
                                       "--trials", "2", "--out", path])
        assert code == 0
    assert filecmp.cmp(a, b, shallow=False)
    doc = json.loads(open(a).read())
    assert doc["failures"] == 0
    assert doc["results"]["suite"] == "harmonic"


def test_csv_ledger(tmp_path, capsys):
    csv_path = str(tmp_path / "checks.csv")
    code, _, _ = run_main(capsys, ["verify", "--suite", "harmonic",
                                   "--trials", "2", "--csv", csv_path])
    assert code == 0
    lines = open(csv_path).read().splitlines()
    assert lines[0] == "suite,name,params,lhs,rhs,slack,pass"
    assert len(lines) > 1
    assert all(line.endswith(",true") for line in lines[1:])
    assert all(line.startswith("harmonic,") for line in lines[1:])


def test_gamma_exhaustive_frozen_value(capsys):
    code, doc, _ = run_main(capsys, ["gamma-exhaustive", "--n", "2",
                                     "--m", "4"])
    assert code == 0
    assert doc["results"]["gamma_hat"] == pytest.approx(0.5303300858899106)
    assert doc["results"]["witness"]  # value table included


def test_gamma_search_defaults_to_two_point(capsys):
    code, doc, _ = run_main(capsys, ["gamma-search", "--n", "1", "--m", "4",
                                     "--budget", "200", "--seed", "1"])
    assert code == 0
    # a lower bound can never beat the exhaustive maximum
    assert doc["results"]["gamma_hat"] <= 0.4330127018922193 + 1e-12
    assert doc["mode"] == "lower-bound"


def test_bq_exhaustive(capsys):
    code, doc, _ = run_main(capsys, ["bq", "--n", "1", "--m", "4",
                                     "--ell", "2", "--exhaustive"])
    assert code == 0
    assert doc["results"]["b_hat"] == pytest.approx(1.0 / math.sqrt(2.0))
    assert doc["mode"] == "exact"


PATH4 = str(Path(__file__).parent / "data" / "path4_space.json")


def test_bq_exhaustive_enumerates_the_given_space(capsys):
    code, doc, _ = run_main(capsys, ["bq", "--n", "1", "--m", "4", "--ell",
                                     "2", "--exhaustive", "--space", PATH4])
    assert code == 0
    assert doc["mode"] == doc["results"]["mode"] == "exact"
    # all 4^4 maps of Z_4 into the 4-point path, point 0 the highest digit;
    # the first of the maximal witnesses wins
    space, dom = load_metric_space(PATH4), TorusDomain(n=1, m=4)
    maps = list(itertools.product(range(4), repeat=4))
    b_hats = [b_functionals(GridFunction.points(dom, vals), space, 2).b_hat
              for vals in maps]
    best = b_hats.index(max(b_hats))
    assert len(maps) == 256
    assert doc["results"]["b_hat"] == b_hats[best] == math.sqrt(0.5)
    assert doc["results"]["witness"] == list(maps[best])


def test_bq_exhaustive_keeps_the_two_point_gap(capsys, tmp_path):
    gap2 = tmp_path / "gap2.json"
    gap2.write_text(json.dumps({"labels": ["a", "b"], "dist": [[0, 2], [2, 0]]}))
    code, doc, _ = run_main(capsys, ["bq", "--n", "1", "--m", "4", "--ell",
                                     "2", "--exhaustive", "--space", str(gap2)])
    assert code == 0 and doc["mode"] == "exact"
    got = doc["results"]
    assert (got["lhs"], got["rhs_raw"]) == (4.0, 2.0)  # 4x the unit gap's
    assert got["b_hat"] == math.sqrt(0.5)


def test_bq_exhaustive_counts_the_witnesses_of_a_one_point_space(capsys,
                                                                  tmp_path):
    one = tmp_path / "one.json"
    one.write_text(json.dumps({"dist": [[0]]}))
    # 22 points, but 1^22 = 1 witness, well within the cap
    code, doc, _ = run_main(capsys, ["bq", "--n", "1", "--m", "22", "--ell",
                                     "2", "--exhaustive", "--space", str(one)])
    assert code == 0 and doc["mode"] == "exact"
    got = doc["results"]
    assert got["degenerate"] is True and got["b_hat"] == 0.0
    assert got["witness"] == [0] * 22


def test_bq_exhaustive_past_the_cap_exits_2(capsys):
    # the cap is the caller's --budget, 2^20 witnesses by default
    code, doc, err = run_main(capsys, ["bq", "--n", "2", "--m", "4", "--ell",
                                       "2", "--exhaustive", "--space", PATH4])
    assert code == 2 and doc is None
    assert err == "error: 4^16 witnesses exceed budget 1048576\n"
    code, doc, err = run_main(capsys, ["bq", "--n", "1", "--m", "8", "--ell",
                                       "2", "--exhaustive", "--space", PATH4,
                                       "--budget", str(4**8 - 1)])
    assert code == 2 and doc is None
    assert err == f"error: 4^8 witnesses exceed budget {4**8 - 1}\n"
    code, doc, _ = run_main(capsys, ["bq", "--n", "1", "--m", "8", "--ell",
                                     "2", "--exhaustive", "--space", PATH4,
                                     "--budget", str(4**8)])
    assert code == 0 and doc["mode"] == "exact"


def test_bq_exhaustive_refuses_10_to_the_8_points_at_once(capsys):
    # the refusal must not form 4^(10^8), a 200-million-bit integer
    code, doc, err = run_main(capsys, ["bq", "--n", "4", "--m", "100", "--ell",
                                       "2", "--exhaustive", "--space", PATH4])
    assert code == 2 and doc is None
    assert err == "error: 4^100000000 witnesses exceed budget 1048576\n"


def test_mod_check_all_pass(capsys):
    code, doc, _ = run_main(capsys, ["mod-check", "--n", "2", "--m", "6",
                                     "--r", "2", "--trials", "10"])
    assert code == 0
    assert doc["failures"] == 0
    assert len(doc["checks"]) == 10
    assert doc["results"]["worst_slack"] >= 0.0


def test_embed_commands(capsys):
    code, doc, _ = run_main(capsys, ["embed", "frechet", "--m", "4"])
    assert code == 0
    assert doc["results"]["distortion"] == pytest.approx(1.0)

    code, doc, _ = run_main(capsys, ["embed", "sparse", "--m", "16",
                                     "--eps", "0.25"])
    assert code == 0
    assert doc["results"]["distortion"] == pytest.approx(4.0 / 3.0)

    code, doc, _ = run_main(capsys, ["embed", "grid-torus", "--m", "2",
                                     "--n", "2"])
    assert code == 0
    assert doc["results"]["distortion"] == pytest.approx(1.0)


def test_extract_grid_command(capsys):
    code, doc, _ = run_main(capsys, ["extract-grid", "--n", "2", "--m", "8",
                                     "--s", "4"])
    assert code == 0
    assert doc["results"]["embedding"]["distortion"] <= 1.0 + 1e-9
    assert doc["results"]["extraction"]["eta"] <= 1e-12


def test_extract_grid_bad_scale(capsys):
    code, doc, err = run_main(capsys, ["extract-grid", "--n", "2", "--m", "8",
                                       "--s", "3"])
    assert code == 2
    assert doc is None
    assert "error:" in err


def test_extract_grid_over_the_defect_budget(capsys, monkeypatch,
                                             budget_estimate):
    from cotypelab import embeddings, spaces

    def no_table(*args, **kwargs):
        raise AssertionError("the torus table is built before the guard")

    argv = ["extract-grid", "--n", "2", "--m", "8", "--s", "4"]
    estimate = budget_estimate(
        lambda: embeddings.require_defect_budget(TorusDomain(n=2, m=8), 4),
        "a geodesic-defect sum")
    for name, value in zip(("MEMORY_BUDGET", "WORK_BUDGET"), estimate):
        below = value - 1 if name == "MEMORY_BUDGET" else math.nextafter(value, 0)
        with monkeypatch.context() as patch:
            patch.setattr(spaces, name, value)
            code, doc, err = run_main(capsys, argv)
            # at its estimate the defect sum runs; in seconds the distortion
            # scan that follows, 4 points by 2 + 2 columns, is estimated higher
            assert (code == 0 if name == "MEMORY_BUDGET" else
                    err.startswith("error: a distortion scan of 4 points needs "))
            patch.setattr(spaces, name, below)
            patch.setattr("cotypelab.cli.torus_space", no_table)
            code, doc, err = run_main(capsys, argv)
        assert code == 2
        assert doc is None
        assert err.startswith("error: a geodesic-defect sum of 3072 ")
        assert f"budget is {below}" in err


def test_extract_grid_runs_without_a_torus_table(capsys, address_cap,
                                                 monkeypatch):
    from cotypelab import TorusDomain, embeddings
    from cotypelab.spaces import FiniteMetricSpace

    # within the budget; the 65,536-point torus table would be 32 GiB
    work = embeddings.require_defect_budget(TorusDomain(n=4, m=16), 4)
    assert work == 75_497_472
    built, init = [], FiniteMetricSpace.__init__

    def record(space, *args, **kwargs):
        init(space, *args, **kwargs)
        built.append(space)

    monkeypatch.setattr(FiniteMetricSpace, "__init__", record)
    address_cap(4 << 30)  # a table built anyway fails with MemoryError
    code, doc, err = run_main(capsys, ["extract-grid", "--n", "4",
                                       "--m", "16", "--s", "4"])
    assert code == 0, err
    assert doc["results"]["extraction"]["eta"] == 0.0
    assert doc["results"]["embedding"]["distortion"] == 1.0
    assert doc["results"]["embedding"]["target_size"] == 65536
    # the torus and the box: labels are built only when read
    assert [s.size for s in built] == [65536, 16]
    assert not any("labels" in vars(s) for s in built)


def test_extract_grid_at_n4_s8_runs_within_the_budget(capsys):
    # 838,860,800 transition-point terms, about 4 s on a 2-core desk machine
    code, doc, err = run_main(capsys, ["extract-grid", "--n", "4",
                                       "--m", "16", "--s", "8"])
    assert code == 0, err
    assert doc["results"]["extraction"]["eta"] == 0.0
    assert doc["results"]["embedding"]["distortion"] == 1.0


@pytest.mark.parametrize("argv", [
    ["moduli-check", "--n", "2", "--m", "128"],  # 16,384 net points
    ["embed", "frechet", "--m", "6000"],  # a 12,000-point cycle
])
def test_all_pair_work_over_the_table_budget_is_refused(capsys, address_cap,
                                                        argv):
    address_cap(4 << 30)  # work begun anyway fails with MemoryError
    code, doc, err = run_main(capsys, argv)
    assert code == 2
    assert doc is None
    assert err.startswith("error: a ") and f"budget is {1 << 30}" in err


@pytest.mark.parametrize("argv,n,m", [
    (["gamma-hilbert", "--n", "1", "--m", "0"], 1, 0),  # was ZeroDivisionError
    (["gamma-hilbert", "--n", "1", "--m", "-2"], 1, -2),  # math domain error
    (["bounds", "grid-distortion", "--n", "2", "--q", "2", "--m", "0"], 2, 0),
])
def test_the_hilbert_constant_below_m_2_exits_2(capsys, argv, n, m):
    code, doc, err = run_main(capsys, argv)
    assert code == 2 and doc is None
    assert err == f"error: need n >= 1 and m >= 2, got n={n} m={m}\n"


@pytest.mark.parametrize("argv,n,m,dk", [
    # c rounds to 1.0, so D is 0 (was ZeroDivisionError)
    (["gamma-hilbert", "--n", "1", "--m", "1000000000"], 1, 10**9, "0"),
    (["bounds", "grid-distortion", "--n", "1", "--q", "2", "--m",
      "1000000000"], 1, 10**9, "0"),
    # the first even m past 30,550,072, the last one answered
    (["gamma-hilbert", "--n", "2", "--m", "30550074"], 2, 30550074, "5.64e-14"),
])
def test_the_hilbert_constant_past_float64_precision_exits_2(capsys, argv,
                                                             n, m, dk):
    code, doc, err = run_main(capsys, argv)
    assert code == 2 and doc is None
    assert err == (f"error: at n={n} m={m}, D = 2 - 2c^n = {dk} is below "
                   "n * 2^-45: float64 rounding could move gamma by more "
                   "than 1/64\n")


@pytest.mark.parametrize("argv", [
    ["gamma-hilbert", "--n", "1"],
    ["bounds", "grid-distortion", "--n", "1", "--q", "2"],
    ["plot", "distortion-vs-n", "--n-max", "2", "--plot", "{plot}"],
])
def test_an_m_past_float64_range_exits_2(capsys, tmp_path, argv):
    # m = 10^400 ended in OverflowError: int too large to convert to float
    plot = tmp_path / "x.svg"
    argv = [a.format(plot=plot) for a in argv] + ["--m", str(10**400)]
    code, doc, err = run_main(capsys, argv)
    assert code == 2 and doc is None and not plot.exists()
    assert err == ("error: an m of 1329 bits is past float64 range, where "
                   "D = 2 - 2c^n is 0\n")


@pytest.mark.parametrize("argv", [
    ["gamma-hilbert", "--m", "32"],
    ["bounds", "grid-distortion", "--q", "2", "--m", "32"],
    ["bounds", "grid-distortion", "--q", "2", "--K", "1"],
    ["plot", "gamma-vs-m", "--m-max", "4", "--plot", "{plot}"],
])
def test_an_n_past_float64_range_exits_2(capsys, tmp_path, argv):
    # n = 10^400 ended in OverflowError: the budget line formed 1.6e-6 * n,
    # and the bound n ** (1/q)
    plot = tmp_path / "x.svg"
    argv = [a.format(plot=plot) for a in argv] + ["--n", str(10**400)]
    code, doc, err = run_main(capsys, argv)
    assert code == 2 and doc is None and not plot.exists()
    assert err == "error: an n of 1329 bits is past float64 range\n"


@pytest.mark.parametrize("argv,message", [
    (["plot", "distortion-vs-n", "--m", "4", "--n-max", "100000000"],
     "a 100000000-point plot needs 52800000000 bytes, budget is 1073741824"),
    # every m passes gamma_hilbert_exact's own guard; the loop did not
    (["plot", "gamma-vs-m", "--n", "1", "--m-max", "2000000"],
     "a 1000000-point plot needs about 12.1 s, budget is 5.0 s"),
    (["plot", "gamma-vs-m", "--n", "1", "--m-max", str(10**400)],
     "an m_max of 1329 bits is past float64 range"),
    (["plot", "distortion-vs-n", "--m", "4", "--n-max", str(10**400)],
     "an n_max of 1329 bits is past float64 range"),
])
def test_a_plot_past_its_budget_exits_2_before_its_first_point(
        capsys, tmp_path, monkeypatch, argv, message):
    def no_point(*args):
        raise AssertionError("a point was computed before the plot's budget")

    monkeypatch.setattr(cli, "gamma_hilbert_exact", no_point)
    plot = tmp_path / "x.svg"
    code, doc, err = run_main(capsys, argv + ["--plot", str(plot)])
    assert code == 2 and doc is None and not plot.exists()
    assert err == f"error: {message}\n"


def test_the_hilbert_constant_at_the_last_m_within_precision(capsys):
    code, doc, _ = run_main(capsys, ["gamma-hilbert", "--n", "2",
                                     "--m", "30550072"])
    assert code == 0
    # sqrt(3/2)/pi, the m -> infinity limit, to the 1/64 the guard keeps
    assert doc["results"]["gamma"] == pytest.approx(math.sqrt(1.5) / math.pi,
                                                    rel=1 / 64)


def test_a_net_under_an_exponent_below_1_exits_2(capsys):
    # l_0.5 is no metric: (0,0), (1,0), (1,1) are 1, 1 and 4 apart
    code, doc, err = run_main(capsys, ["moduli-check", "--n", "1", "--m", "4",
                                       "--r", "0.5"])
    assert code == 2 and doc is None
    assert err == "error: $: norm exponent must be >= 1, got 0.5\n"


def test_bq_zero_shift_is_a_usage_error(capsys):
    code, doc, err = run_main(capsys, ["bq", "--n", "2", "--m", "4",
                                       "--ell", "0", "--budget", "10"])
    assert code == 2
    assert doc is None
    assert err == "error: the shift must be nonzero, got ell=0\n"


def test_moduli_check_command(capsys):
    code, doc, _ = run_main(capsys, ["moduli-check", "--n", "2", "--m", "4",
                                     "--trials", "5"])
    assert code == 0
    assert doc["failures"] == 0
    assert len(doc["checks"]) == 5


def test_bounds_commands(capsys):
    code, doc, _ = run_main(capsys, ["bounds", "shift-growth", "--n0", "4",
                                     "--ell0", "4", "--n", "10"])
    assert code == 0
    assert doc["results"]["value"] == pytest.approx(80.0)

    code, doc, _ = run_main(capsys, ["bounds", "grid-distortion", "--n", "4",
                                     "--q", "2", "--K", "1"])
    assert code == 0
    assert doc["results"]["value"] == pytest.approx(1.0)

    # K defaults to the exact constant of the named cell
    code, doc, _ = run_main(capsys, ["bounds", "grid-distortion", "--n", "2",
                                     "--q", "2", "--m", "4"])
    assert code == 0
    assert doc["results"]["value"] == pytest.approx(4.0 / 3.0)


def test_plot_command(tmp_path, capsys):
    svg = str(tmp_path / "gamma.svg")
    code, doc, _ = run_main(capsys, ["plot", "gamma-vs-m", "--n", "2",
                                     "--m-max", "8", "--plot", svg])
    assert code == 0
    assert doc["results"]["file"] == svg
    head = open(svg).read(200)
    assert head.startswith("<svg")

    code, doc, _ = run_main(capsys, ["plot", "distortion-vs-n", "--m", "4",
                                     "--n-max", "3",
                                     "--plot", str(tmp_path / "d.svg")])
    assert code == 0
    assert len(doc["results"]["points"]) == 3


def test_plot_requires_a_path(capsys, tmp_path):
    code, doc, err = run_main(capsys, ["plot", "gamma-vs-m", "--n", "1",
                                       "--m-max", "4"])
    assert code == 2
    assert "error:" in err
    # --out is the report mirror, never the svg destination
    code, doc, err = run_main(capsys, ["plot", "gamma-vs-m", "--n", "1",
                                       "--m-max", "4",
                                       "--out", str(tmp_path / "r.json")])
    assert code == 2


def test_odd_m_rejected_as_schema_violation(capsys):
    code, doc, err = run_main(capsys, ["gamma-hilbert", "--n", "1",
                                       "--m", "5"])
    assert code == 2
    assert "must be even" in err


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_verify_rejects_fewer_than_one_trial(capsys, trials):
    code, doc, err = run_main(capsys, ["verify", "--suite", "embeddings",
                                       "--trials", trials])
    assert code == 2
    assert doc is None
    assert "trials must be >= 1" in err
    code, doc, _ = run_main(capsys, ["verify", "--suite", "embeddings",
                                     "--trials", "1"])
    assert code == 0 and doc["params"]["trials"] == 1


def test_non_finite_witness_exit_code(capsys, monkeypatch):
    import numpy as np

    from cotypelab import GridFunction, TorusDomain

    def nan_witness(cfg):
        dom = TorusDomain(n=1, m=4)
        GridFunction.vector(dom, np.full(4, np.nan))

    monkeypatch.setitem(COMMANDS, "gamma-hilbert", nan_witness)
    code, doc, err = run_main(capsys, ["gamma-hilbert", "--n", "1",
                                       "--m", "4"])
    assert code == 2
    assert doc is None
    assert "error:" in err and "NaN or infinite" in err


def test_not_found_exit_code(capsys, monkeypatch):
    def raiser(cfg):
        raise NotFoundError("nothing qualified")

    monkeypatch.setitem(COMMANDS, "gamma-hilbert", raiser)
    code, doc, err = run_main(capsys, ["gamma-hilbert", "--n", "1",
                                       "--m", "4"])
    assert code == 1
    assert "not found" in err


def test_exit_code_counts_failures(capsys, monkeypatch):
    from cotypelab.checks import InequalityCheck

    def fake(cfg):
        bad = InequalityCheck(name="x", params={}, lhs=2.0, rhs=1.0,
                              tolerance=0.0)
        good = InequalityCheck(name="y", params={}, lhs=0.0, rhs=1.0,
                               tolerance=0.0)
        return {}, [bad, bad, good], "sampled"

    monkeypatch.setitem(COMMANDS, "mod-check", fake)
    code, doc, _ = run_main(capsys, ["mod-check", "--n", "1", "--m", "4",
                                     "--r", "2"])
    assert code == 2
    assert doc["failures"] == 2


def test_programmatic_run():
    rep = run(ExperimentConfig(command="gamma-hilbert",
                               params={"n": 1, "m": 4}))
    assert rep.results["gamma"] == pytest.approx(math.sqrt(3.0) / 4.0)
    assert rep.failures == 0
    assert rep.runtime >= 0.0

    with pytest.raises(UnknownCommandError):
        run(ExperimentConfig(command="teleport", params={}))
    with pytest.raises(SchemaViolationError) as ei:
        run(ExperimentConfig(command="gamma-hilbert", params={"n": 1}))
    assert ei.value.json_path == "$.params.m"


def test_custom_space_file(tmp_path, capsys):
    doc = {"labels": ["a", "b", "c"],
           "dist": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_main(capsys, ["gamma-search", "--n", "1", "--m", "4",
                                     "--space", str(path),
                                     "--budget", "100"])
    assert code == 0
    assert out["results"]["gamma_hat"] > 0.0


def test_argparse_surface():
    with pytest.raises(SystemExit) as ei:
        main(["verify", "--suite", "bogus"])
    assert ei.value.code == 2
    with pytest.raises(SystemExit) as ei:
        main(["--version"])
    assert ei.value.code == 0


@pytest.mark.parametrize("command", [
    ["gamma-search", "--n", "1", "--m", "4"],
    ["bq", "--n", "1", "--m", "4", "--ell", "2"],
])
def test_one_point_space_reports_a_degenerate_witness(tmp_path, capsys,
                                                      command):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"dist": [[0]]}))
    code, doc, _ = run_main(capsys, command + ["--space", str(path),
                                               "--budget", "10"])
    assert code == 0
    assert doc["results"]["degenerate"] is True
    assert doc["results"]["witness"] == [0, 0, 0, 0]


@pytest.mark.parametrize("budget", ["0", "-5"])
@pytest.mark.parametrize("command", [
    ["gamma-search", "--n", "1", "--m", "4"],
    ["bq", "--n", "1", "--m", "4", "--ell", "2"],
    ["gamma-exhaustive", "--n", "1", "--m", "2"],
])
def test_budget_below_one_is_a_usage_error(capsys, command, budget):
    code, doc, err = run_main(capsys, command + ["--budget", budget])
    assert code == 2 and doc is None
    assert f"$.params.budget: budget must be >= 1, got {budget}" in err
    params = {"n": 1, "m": 4, "ell": 2} if command[0] == "bq" else {"n": 1, "m": 2}
    with pytest.raises(SchemaViolationError) as ei:
        run(ExperimentConfig(command=command[0],
                             params={**params, "budget": int(budget)}))
    assert ei.value.json_path == "$.params.budget"


def test_one_version_everywhere(capsys):
    import re
    from pathlib import Path

    import cotypelab

    # a regex, not tomllib, so the test runs on Python 3.10 as declared
    pyproject = Path(__file__).parent.parent / "pyproject.toml"
    declared, = re.findall(r'^version = "([^"]+)"$',
                           pyproject.read_text(encoding="utf-8"), re.M)
    with pytest.raises(SystemExit):
        main(["--version"])
    assert capsys.readouterr().out.strip() == declared
    assert cotypelab.__version__ == declared
    code, doc, _ = run_main(capsys, ["gamma-hilbert", "--n", "1", "--m", "2"])
    assert code == 0 and doc["version"] == declared


def test_config_from_args_filters_none():
    import argparse

    ns = argparse.Namespace(command="gamma-search", n=1, m=4, p=2.0,
                            q=None, space=None, seed=0, budget=0, out=None)
    cfg = config_from_args(ns)
    assert cfg.params == {"n": 1, "m": 4, "p": 2.0, "seed": 0, "budget": 0}
    # a zero budget is passed through for run() to reject, not replaced
    with pytest.raises(SchemaViolationError) as ei:
        run(cfg)
    assert ei.value.json_path == "$.params.budget"


def test_verify_seed_reaches_the_suites(capsys):
    from cotypelab import run_suite

    def checks(argv):
        code, doc, _ = run_main(capsys, ["verify", "--suite", "cotype"] + argv)
        assert code == 0
        return doc

    plain = checks([])
    assert "seed" not in plain["params"] and "seed" not in plain
    suite_default = [c.lhs for c in run_suite("cotype")]
    assert [c["lhs"] for c in plain["checks"]] == suite_default
    one, two = checks(["--seed", "1"]), checks(["--seed", "2"])
    assert one["params"]["seed"] == 1 and "seed" not in one
    assert [c["lhs"] for c in one["checks"]] == \
        [c.lhs for c in run_suite("cotype", seed=1)]
    assert one["checks"] != two["checks"]


@pytest.mark.parametrize("trials", ["0", "-3"])
@pytest.mark.parametrize("command", [
    ["mod-check", "--n", "2", "--m", "6", "--r", "2"],
    ["moduli-check", "--n", "1", "--m", "6"],
])
def test_check_commands_refuse_fewer_than_one_trial(capsys, command, trials):
    # no trials means no checks, so "all passed" would certify nothing
    code, doc, err = run_main(capsys, command + ["--trials", trials])
    assert code == 2 and doc is None
    assert f"$.params.trials: trials must be >= 1, got {trials}" in err
    params = {"n": 2, "m": 6, "r": 2, "trials": int(trials)}
    if command[0] == "moduli-check":
        params = {"n": 1, "m": 6, "trials": int(trials)}
    with pytest.raises(SchemaViolationError) as ei:
        run(ExperimentConfig(command=command[0], params=params))
    assert ei.value.json_path == "$.params.trials"


@pytest.mark.parametrize("command, params, key", [
    ("gamma-hilbert", {"n": 1, "m": 4, "mm": 6}, "mm"),  # unknown key
    ("gamma-search", {"n": 1, "m": 4, "seed": 3.5}, "seed"),  # a declared seed
    ("gamma-hilbert", {"n": 2.7, "m": 4}, "n"),  # no truncation to 2
    ("gamma-hilbert", {"n": 2, "m": 4.9}, "m"),
    ("gamma-hilbert", {"n": True, "m": 4}, "n"),
    ("gamma-hilbert", {"n": "2", "m": 4}, "n"),
    ("gamma-exhaustive", {"n": 1, "m": 2, "p": False}, "p"),
    ("bq", {"n": 1, "m": 4, "ell": 2, "exhaustive": "no"}, "exhaustive"),
    ("bq", {"n": 1, "m": 4, "ell": 2, "exhaustive": 1}, "exhaustive"),
    ("mod-check", {"n": 1, "m": 4, "r": 2, "trials": 2.5}, "trials"),
    ("embed", {"m": 4}, "kind"),
    ("embed", {"kind": "sparse", "m": 16}, "eps"),
    ("bounds", {"kind": "grid-distortion", "n": 2, "q": 2.0}, "m"),
    ("plot", {"kind": "gamma-vs-m", "n": 1, "m_max": 3}, "m_max"),
])
def test_dict_params_are_checked(command, params, key):
    with pytest.raises(SchemaViolationError) as ei:
        run(ExperimentConfig(command=command, params=params, plot="x.svg"))
    assert ei.value.json_path == f"$.params.{key}"


def test_dict_params_take_integral_numbers_and_fill_defaults():
    import numpy as np

    rep = run(ExperimentConfig(command="gamma-hilbert",
                               params={"n": np.int64(1), "m": 4.0}))
    assert rep.results["n"] == 1 and rep.results["m"] == 4
    assert isinstance(rep.results["m"], int)
    # defaults reach the handler; the report keeps the params as given
    rep = run(ExperimentConfig(command="mod-check",
                               params={"n": 1, "m": 4, "r": 2}))
    assert len(rep.checks) == 100 and rep.config.params == {"n": 1, "m": 4,
                                                            "r": 2}


@pytest.mark.parametrize("command, params", [
    ("embed", {"kind": "torus", "m": 4}),
    ("bounds", {"kind": "volume", "n": 2}),
    ("plot", {"kind": "pie"}),
    ("verify", {"suite": "bogus"}),
])
def test_unknown_kind_or_suite_in_a_dict(command, params):
    with pytest.raises(UnknownCommandError):
        run(ExperimentConfig(command=command, params=params, plot="x.svg"))


def test_plot_odd_m_max_names_its_params_key(capsys, tmp_path):
    svg = str(tmp_path / "g.svg")
    code, doc, err = run_main(capsys, ["plot", "gamma-vs-m", "--n", "1",
                                       "--m-max", "3", "--plot", svg])
    assert code == 2 and doc is None
    assert err == "error: $.params.m_max: m_max must be even, got 3\n"
    code, doc, _ = run_main(capsys, ["plot", "gamma-vs-m", "--n", "1",
                                     "--m-max", "4", "--plot", svg])
    assert code == 0 and doc["params"]["q"] == 2.0  # the table default


@pytest.mark.parametrize("argv", [
    ["gamma-hilbert", "--n", "1", "--m", "4", "--budget", "5"],
    ["extract-grid", "--n", "2", "--m", "8", "--s", "4", "--seed", "1"],
    ["gamma-search", "--n", "1", "--m", "4", "--csv", "x.csv"],
    ["embed", "frechet", "--m", "4", "--seed", "1"],
    ["bounds", "shift-growth", "--n0", "4", "--ell0", "4", "--n", "10",
     "--budget", "5"],
    ["verify", "--suite", "harmonic", "--budget", "5"],
    # --budget counts a maximum's evaluations, and embed runs none
    ["embed", "grid-torus", "--m", "2", "--n", "1", "--budget", "3"],
])
def test_flags_a_command_does_not_read_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as ei:
        main(argv)
    assert ei.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# the cheapest run of each command, with a seed and a budget where declared
MINIMAL_ARGV = {
    "gamma-hilbert": ["--n", "1", "--m", "2"],
    "gamma-exhaustive": ["--n", "1", "--m", "2"],
    "gamma-search": ["--n", "1", "--m", "2"],
    "bq": ["--n", "1", "--m", "2", "--ell", "2"],
    "mod-check": ["--n", "1", "--m", "4", "--r", "2", "--trials", "1"],
    "verify": ["--suite", "harmonic", "--trials", "1"],
    "embed": ["frechet", "--m", "2"],
    "extract-grid": ["--n", "1", "--m", "8", "--s", "4"],
    "moduli-check": ["--n", "1", "--m", "2", "--trials", "1"],
    "bounds": ["shift-growth", "--n", "4", "--n0", "2", "--ell0", "2"],
    "plot": ["gamma-vs-m", "--n", "1", "--m-max", "2", "--plot", "p.svg"],
}


@pytest.mark.parametrize("name", sorted(TABLE))
def test_a_report_names_only_the_seed_and_budget_its_command_reads(
        name, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    declared = {p.name for p in TABLE[name].params} & {"seed", "budget"}
    given = {"seed": 3, "budget": 7}
    argv = [name, *MINIMAL_ARGV[name]]
    for key in sorted(declared):
        argv += [f"--{key}", str(given[key])]
    code, doc, _ = run_main(capsys, argv)
    assert code == 0
    assert "seed" not in doc and "budget" not in doc
    assert {key: doc["params"][key] for key in declared} == \
        {key: given[key] for key in declared}
    assert not ({"seed", "budget"} - declared) & doc["params"].keys()
    for key in sorted({"seed", "budget"} - declared):
        with pytest.raises(SchemaViolationError) as ei:
            run(ExperimentConfig(command=name,
                                 params={**doc["params"], key: 1}))
        assert ei.value.json_path == f"$.params.{key}"


def test_check_commands_write_the_ledger(tmp_path, capsys):
    for argv in (["mod-check", "--n", "1", "--m", "4", "--r", "2",
                  "--trials", "3"],
                 ["moduli-check", "--n", "1", "--m", "4", "--trials", "3"]):
        path = tmp_path / f"{argv[0]}.csv"
        code, _, _ = run_main(capsys, argv + ["--csv", str(path)])
        assert code == 0
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        assert all(line.startswith(f"{argv[0]},") for line in lines[1:])


def test_readme_command_lines_run(tmp_path, capsys, monkeypatch):
    import shlex
    from pathlib import Path

    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.strip()]
    assert len(lines) >= 11
    monkeypatch.chdir(tmp_path)
    for line in lines:
        prog, *argv = shlex.split(line)
        assert prog == "cotypelab"
        code, doc, err = run_main(capsys, argv)
        assert code == 0, (line, err)
        assert doc["command"] == argv[0]
