"""Reports of the searches, enumerations and verify suites, byte for byte
against frozen stdout.

Each file under tests/golden/ holds the stdout of one command as it was
before a refactor of the code it runs: the four search and enumeration
reports from before the shift kernel replaced the per-shift loops, the
two verify suites from before one climber replaced three climb loops,
the two grid extractions and the grid-torus inclusion from before
their point indices were vectorised and the extraction's ball sums moved
onto the window-average slices, and the four searches over the metric
spaces in tests/data/ from before the searches scored through incremental
shift sums (path4 has integer distances, so they score incrementally;
uneven3 has not, so they fall back to full evaluation), and the two
sampled check commands, a bound and a sparse embedding from before the
command line was built from one parameter table, and the cotype suite,
an exact b-quantity, an exact two-point gamma and the Frechet cycle from
before gamma and b-hat shared one ratio record, scorer and enumerator
and the cycle embeddings one profile helper, and two exact b-quantities
on two-point spaces at gaps 2 and 0.3 (their changed witnesses and the
gap-0.3 value's last bits are argued in CHANGES.md). Every file was
regenerated once when a report stopped naming a config-wide seed and
budget: each command that reads them carries them under "params", and
nothing else moved (argued in CHANGES.md). Commands run from
the tests directory, so the --space paths in the reports are relative.
Runtime goes to stderr, so stdout is byte-stable. A difference here is a
behaviour change: argue for it in CHANGES.md instead of re-freezing the
file.
"""
from pathlib import Path

import pytest

from cotypelab.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "gamma_search_n2_m6.json":
        ["gamma-search", "--n", "2", "--m", "6", "--budget", "3000",
         "--seed", "5"],
    "gamma_search_n3_m6_q4.json":
        ["gamma-search", "--n", "3", "--m", "6", "--q", "4",
         "--budget", "1000", "--seed", "3"],
    "bq_n2_m6_ell2.json":
        ["bq", "--n", "2", "--m", "6", "--ell", "2", "--budget", "2000",
         "--seed", "2"],
    "gamma_exhaustive_n4_m2_p1_q2.json":
        ["gamma-exhaustive", "--n", "4", "--m", "2", "--p", "1", "--q", "2"],
    # the two adversarial smoothing climbs and the injection descent
    "verify_smoothing_trials5.json":
        ["verify", "--suite", "smoothing", "--trials", "5"],
    "verify_embeddings_trials5.json":
        ["verify", "--suite", "embeddings", "--trials", "5"],
    # the torus table, the y0 ball mask, the mapped indices, the ball sums
    "extract_grid_n3_m16_s8.json":
        ["extract-grid", "--n", "3", "--m", "16", "--s", "8"],
    "extract_grid_n4_m8_s4.json":
        ["extract-grid", "--n", "4", "--m", "8", "--s", "4"],
    "embed_grid_torus_m2_n2.json":
        ["embed", "grid-torus", "--m", "2", "--n", "2"],
    "gamma_search_path4_n2_m4_q4.json":
        ["gamma-search", "--n", "2", "--m", "4", "--q", "4", "--budget", "1500",
         "--seed", "4", "--space", "data/path4_space.json"],
    "bq_path4_n2_m4_ell2.json":
        ["bq", "--n", "2", "--m", "4", "--ell", "2", "--budget", "1500",
         "--seed", "4", "--space", "data/path4_space.json"],
    "gamma_search_uneven3_n2_m4.json":
        ["gamma-search", "--n", "2", "--m", "4", "--budget", "1500",
         "--seed", "4", "--space", "data/uneven3_space.json"],
    "bq_uneven3_n2_m4_ell2.json":
        ["bq", "--n", "2", "--m", "4", "--ell", "2", "--budget", "1500",
         "--seed", "4", "--space", "data/uneven3_space.json"],
    # the seeded trial loop, a bound with K from the exact constant, eps
    "mod_check_n2_m6_a1_r2_trials5.json":
        ["mod-check", "--n", "2", "--m", "6", "--a", "1", "--r", "2",
         "--trials", "5"],
    "moduli_check_n1_m6_trials5_seed3.json":
        ["moduli-check", "--n", "1", "--m", "6", "--trials", "5",
         "--seed", "3"],
    "bounds_grid_distortion_n2_m4_q2.json":
        ["bounds", "grid-distortion", "--n", "2", "--m", "4", "--q", "2"],
    "embed_sparse_m16_eps025.json":
        ["embed", "sparse", "--m", "16", "--eps", "0.25"],
    # the MC mean, both enumerators, the tensor check, the b identity
    "verify_cotype_trials5.json":
        ["verify", "--suite", "cotype", "--trials", "5"],
    "bq_exhaustive_n1_m4_ell2.json":
        ["bq", "--n", "1", "--m", "4", "--ell", "2", "--exhaustive"],
    "gamma_exhaustive_n2_m4_q4.json":
        ["gamma-exhaustive", "--n", "2", "--m", "4", "--q", "4"],
    "embed_frechet_m8.json":
        ["embed", "frechet", "--m", "8"],
    # two-point spaces at gaps 2 and 0.3 on bit planes, frozen before the
    # enumeration took them from mixed radix and ranked by exact ratios
    "bq_exhaustive_gap2_n1_m12_ell4.json":
        ["bq", "--n", "1", "--m", "12", "--ell", "4", "--exhaustive",
         "--space", "data/gap2_space.json"],
    "bq_exhaustive_gap03_n1_m12_ell4.json":
        ["bq", "--n", "1", "--m", "12", "--ell", "4", "--exhaustive",
         "--space", "data/gap03_space.json"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN.parent)
    assert main(CASES[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()
