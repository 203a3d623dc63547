import math

import numpy as np
import pytest

from svasym.errors import DomainError, UnknownKeyError, ValidationError
from svasym.model import (ModelParams, Regime, VolFnSpec, from_doc, sigma_eval,
                          to_doc, validate)


def ou_params(**kw):
    base = dict(m=0.0, nu=math.sqrt(2.0), beta=0.0, rho=0.0, r=0.0,
                sigma=VolFnSpec.power_abs(1.0, 0.5), y0=0.0, x0=0.0)
    base.update(kw)
    return ModelParams(**base)


def cir_params(**kw):
    base = dict(m=1.0, nu=1.0, beta=0.5, rho=0.0, r=0.0,
                sigma=VolFnSpec.power_abs(1.0, 0.25), y0=1.0, x0=0.0)
    base.update(kw)
    return ModelParams(**base)


class TestVolFnSpec:
    def test_constant_value(self):
        spec = VolFnSpec.constant(0.2)
        assert sigma_eval(spec, 3.7) == 0.2
        assert spec.growth_exponent == 0.0

    def test_constant_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            VolFnSpec.constant(0.0)

    def test_power_abs_value(self):
        # sigma(y) = 2 (1 + |y|)^{1/2}; at y = 3 that is 2 * sqrt(4) = 4
        spec = VolFnSpec.power_abs(2.0, 0.5, a=1.0)
        assert sigma_eval(spec, 3.0) == pytest.approx(4.0, abs=1e-14)
        assert sigma_eval(spec, -3.0) == pytest.approx(4.0, abs=1e-14)

    def test_power_abs_exponent_range(self):
        with pytest.raises(ValidationError):
            VolFnSpec.power_abs(1.0, 1.0)
        with pytest.raises(ValidationError):
            VolFnSpec.power_abs(1.0, -0.1)

    def test_tabulated_interpolates(self):
        spec = VolFnSpec.tabulated([0.5, 1.0, 2.0], [0.1, 0.2, 0.4], 0.25)
        assert sigma_eval(spec, 1.5) == pytest.approx(0.3, abs=1e-14)

    def test_tabulated_power_law_tail(self):
        spec = VolFnSpec.tabulated([0.5, 1.0, 2.0], [0.1, 0.2, 0.4], 0.25)
        # above the table: v_last * (y / 2)^{1/4}
        assert sigma_eval(spec, 32.0) == pytest.approx(0.4 * 2.0, abs=1e-12)

    def test_tabulated_rejects_bad_tables(self):
        with pytest.raises(ValidationError):
            VolFnSpec.tabulated([1.0], [0.2], 0.0)
        with pytest.raises(ValidationError):
            VolFnSpec.tabulated([1.0, 0.5], [0.1, 0.2], 0.0)
        with pytest.raises(ValidationError):
            VolFnSpec.tabulated([0.5, 1.0], [0.1, -0.2], 0.0)

    def test_array_evaluation_matches_scalar(self):
        spec = VolFnSpec.power_abs(1.3, 0.3)
        y = np.array([-2.0, 0.0, 1.5])
        arr = sigma_eval(spec, y)
        assert arr.shape == y.shape
        for yi, vi in zip(y, arr):
            assert sigma_eval(spec, float(yi)) == pytest.approx(vi)

    def test_state_space_guard(self):
        spec = VolFnSpec.power_abs(1.0, 0.25)
        with pytest.raises(DomainError):
            sigma_eval(spec, -1.0, beta=0.5)


class TestRegime:
    def test_from_r(self):
        assert Regime.from_r(2) is Regime.FAST
        assert Regime.from_r(4) is Regime.ULTRA_FAST
        with pytest.raises(ValidationError):
            Regime.from_r(3)

    def test_exponent(self):
        assert Regime.FAST.r == 2
        assert Regime.ULTRA_FAST.r == 4


class TestValidate:
    def test_fixtures_pass(self):
        assert validate(ou_params()).passed
        assert validate(cir_params()).passed

    def test_bad_beta_flagged(self):
        report = validate(ou_params(beta=0.3))
        failed = {c.clause for c in report if not c.passed}
        assert "beta-range" in failed

    def test_feller_type_condition(self):
        # beta = 1/2 needs m > nu^2 / 2
        report = validate(cir_params(m=0.4, nu=1.0))
        failed = {c.clause for c in report if not c.passed}
        assert "positivity" in failed
        assert validate(cir_params(m=0.51, nu=1.0)).passed

    def test_growth_exponent_vs_beta(self):
        # growth exponent must stay below 1 - beta
        bad = cir_params(sigma=VolFnSpec.power_abs(1.0, 0.6))
        failed = {c.clause for c in validate(bad) if not c.passed}
        assert "sigma-growth" in failed

    def test_rho_bounds(self):
        report = validate(ou_params(rho=1.0))
        failed = {c.clause for c in report if not c.passed}
        assert "fields" in failed

    def test_nu_square_must_be_finite(self):
        # nu ** 2 raises OverflowError past 1.3e154, in the numerical layers
        # and in the positivity clause at beta = 1/2
        assert validate(ou_params(nu=1e150)).passed
        report = validate(ou_params(nu=1e155))
        assert {c.clause for c in report if not c.passed} == {"fields"}
        report = validate(cir_params(nu=1e155))
        assert {c.clause for c in report if not c.passed} == {"fields", "positivity"}


class TestDoc:
    def test_round_trip(self):
        params = cir_params()
        assert from_doc(to_doc(params)) == params

    def test_round_trip_constant(self):
        params = ou_params(sigma=VolFnSpec.constant(0.2))
        assert from_doc(to_doc(params)) == params

    def test_missing_keys(self):
        with pytest.raises(ValidationError):
            from_doc({"m": 0.0})

    # the growth exponent follows from sigma.kind, so sigma.growth is gone
    @pytest.mark.parametrize("key", ["sigma.growth", "bogus"])
    def test_unknown_key(self, key):
        doc = {**to_doc(cir_params()), key: 1.0}
        with pytest.raises(UnknownKeyError, match=f"^unknown config key: '{key}'$"):
            from_doc(doc)

    def test_y0_required_off_the_line(self):
        doc = to_doc(cir_params())
        del doc["y0"]
        with pytest.raises(ValidationError):
            from_doc(doc)

    def test_tabulated_has_no_doc_form(self):
        params = ou_params(sigma=VolFnSpec.tabulated([-1.0, 1.0], [0.1, 0.2], 0.0))
        with pytest.raises(ValidationError):
            to_doc(params)
