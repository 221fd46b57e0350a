"""The public calls take only the parameters some check, CLI command or
demo sets; each decision that nothing varies is a module constant.

A parameter or method added back here changes a pinned signature or
member list, and this file fails until the pin is argued for.
"""
import dataclasses
import inspect

import pytest

import cotypelab as cl

SIGNATURES = {
    "torus_space": "(domain)",
    "torus_to_grid_full": "(m, n)",
    "diag_distance": "(domain, x, y)",
    "extract_grid": "(f, space, s)",
    "tensor_submultiplicativity_check": "(space, ell, k, s, t, m)",
    "m_parameter_experiment":
        "(space_or_norm, n, p, q, gamma_target, m_max, budget=2000, seed=0)",
    "walsh_char": "(domain, k)",
    "points_space": "(points, p)",
    "validate_metric": "(table, labels=None)",
    "random_two_point_mc": "(n, m, p, q, trials, seed)",
    "distortion": "(mapping, source, target)",
    "adversarial_approx_search": "(n, m, j, k, p, norm, steps=60, seed=0)",
    "adversarial_cancellation_search":
        "(n, m, k, p, eps, norm, steps=60, seed=0)",
    "b_functionals": "(f, space_or_norm, ell)",
    "cotype_functionals": "(f, space_or_norm, p, q)",
    "as_target": "(space_or_norm, values)",
    "coarse_obstruction_check": "(values, space, n, m, p, q, r, s_scale)",
    "frechet_cycle": "(m)",
    "sparse_frechet_cycle": "(m, eps)",
    "exhaustive_b": "(space, n, ell, m, budget=1048576)",
    "grid_to_torus": "(m, n)",
}

ABSENT_METHODS = {
    "FiniteMetricSpace": ("save", "to_json_dict", "diameter", "pairs"),
    "ModuliTables": ("to_json_dict",),
    "ScanResult": ("to_json_dict",),
    "SpectralCoefficients": ("coeff",),
    "GeodesicPath": ("to_json_dict",),
    "TorusDomain": ("lin", "require_points"),
}

# translates are gathers through gridops.shift_table; the np.roll form and
# the {-1,0,1}^n enumeration are the tests' oracle (tests/shift_reference.py);
# a finite metric space is its own target, and exhaustive_b takes any space
ABSENT_NAMES = ("roll_values", "axis_shift", "three_patterns", "MetricTarget",
                "exhaustive_b_two_point")


def _bare(fn) -> str:
    sig = inspect.signature(fn)
    params = [p.replace(annotation=p.empty) for p in sig.parameters.values()]
    return str(sig.replace(parameters=params, return_annotation=sig.empty))


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_signature_is_pinned(name):
    assert _bare(getattr(cl, name)) == SIGNATURES[name]


@pytest.mark.parametrize("cls", sorted(ABSENT_METHODS))
def test_deleted_methods_stay_deleted(cls):
    for attr in ABSENT_METHODS[cls]:
        assert not hasattr(getattr(cl, cls), attr), f"{cls}.{attr}"


@pytest.mark.parametrize("name", ABSENT_NAMES)
def test_deleted_names_stay_deleted(name):
    assert name not in cl.__all__
    assert not hasattr(cl, name) and not hasattr(cl.gridops, name)


def test_geodesic_path_fields():
    assert [f.name for f in dataclasses.fields(cl.GeodesicPath)] == \
        ["steps", "j", "through_index"]
