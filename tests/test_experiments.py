import random
from collections import Counter
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invset.exactmath import (
    ExactAngle,
    NoAdmissibleAngle,
    NotOnInvariantSet,
    REASON_DESCRIBABLE,
    REASON_IRRATIONAL_SINE,
    REASON_PYTHAGOREAN,
    simultaneous_describability,
)
from invset.experiments import (
    BRIDGE_NAMES,
    PAIR_NAMES,
    ChshConfig,
    chsh_run,
    mz_run,
    pbr_run,
    pbr_simultaneity,
    pbr_values,
    relative_turns,
    substitute_describable,
)
from invset import exactmath, experiments, multiqubit, samplespace
from invset.highprec import to_mpf

from numeric_oracles import amplitude_table_mp


def angle(num, den=1):
    return ExactAngle(Fraction(num, den))


def oracle_substitution(turns, n_bits, prec):
    """Nearest count and its angular distance, recomputed plainly at prec bits."""
    with mpmath.workprec(prec):
        t = mpmath.mpf(turns.numerator) / turns.denominator
        count = int(mpmath.nint((1 + mpmath.cos(2 * mpmath.pi * t)) / 2 * (1 << n_bits)))
        cos_sub = mpmath.mpf(2 * count - (1 << n_bits)) / (1 << n_bits)
        return count, abs(mpmath.acos(cos_sub) / (2 * mpmath.pi) - t)


OPTIMAL = dict(a1=angle(0), a2=angle(1, 4), b1=angle(1, 8), b2=angle(3, 8))


class TestSubstitution:
    def test_frozen_small_case(self):
        # requested 1/8 turn at N=4: count 14 of 16, cosine substitute 3/4
        sub = substitute_describable(Fraction(1, 8), 4, Fraction(1, 4))
        assert sub.first_count == 14
        assert sub.cos_value == Fraction(3, 4)
        assert 0 < sub.delta_turns_float < 0.011

    def test_exact_angles_need_no_adjustment(self):
        sub = substitute_describable(Fraction(1, 3), 4, Fraction(1, 1 << 30))
        assert sub.cos_value == Fraction(-1, 2)
        assert sub.delta_turns_float == 0.0

    def test_tiny_window_raises(self):
        with pytest.raises(NoAdmissibleAngle):
            substitute_describable(Fraction(1, 10), 4, Fraction(1, 1 << 40))

    def test_default_window_bound_holds(self):
        # away from the poles (where the cosine grid is angularly coarse and
        # the harness refuses instead), every substitution lands inside the
        # default window
        rng = random.Random(9)
        for n_bits in (6, 10, 14):
            window = Fraction(1, 1 << (n_bits - 2))
            for _ in range(40):
                t = Fraction(rng.randrange(50, 451), 1000)
                sub = substitute_describable(t, n_bits, window)
                assert sub.delta_turns_float < float(window)

    def test_pole_adjacent_requests_never_silently_exceed_window(self):
        window = Fraction(1, 1 << 12)
        for t in (Fraction(1, 1000), Fraction(499, 1000)):
            try:
                sub = substitute_describable(t, 14, window)
            except NoAdmissibleAngle:
                continue
            assert sub.delta_turns_float < float(window)

    @pytest.mark.parametrize("n_bits", [250, 300, 1000])
    def test_large_n_agrees_with_a_double_precision_oracle(self, n_bits):
        # at a fixed 240 bits these were wrongly excluded: 2**-N is below the precision
        window = Fraction(1, 1 << (n_bits - 2))
        sub = substitute_describable(Fraction(1, 8), n_bits, window)
        count, delta = oracle_substitution(Fraction(1, 8), n_bits, 2 * n_bits)
        assert sub.first_count == count
        assert sub.cos_value == Fraction(2 * count, 1 << n_bits) - 1
        assert delta < to_mpf(window, 2 * n_bits)
        assert abs(sub.delta_turns_float - float(delta)) <= 1e-15 * float(delta)

    @pytest.mark.parametrize("n_bits", [10, 20, 40, 1000])
    def test_exact_tie_with_the_window_is_excluded(self, n_bits):
        # the substitute cosine is 1, its angle 0 exactly, so delta equals the window
        window = Fraction(1, 1 << (n_bits - 2))
        with pytest.raises(NoAdmissibleAngle):
            substitute_describable(window, n_bits, window)
        assert substitute_describable(window, n_bits, window * Fraction(1001, 1000)).cos_value == 1

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.integers(3, 2000), st.integers(1, 10**6), st.data())
    def test_equals_a_4n_bit_recomputation(self, n_bits, den, data):
        turns = Fraction(data.draw(st.integers(0, den // 2)), den)
        window = Fraction(1, 1 << (n_bits - 2))
        prec = max(4 * n_bits, 480)
        count, delta = oracle_substitution(turns, n_bits, prec)
        try:
            sub = substitute_describable(turns, n_bits, window)
        except NoAdmissibleAngle:
            # an exact tie (delta == window) is excluded too
            assert delta >= to_mpf(window, prec) - mpmath.mpf(2) ** -(3 * n_bits)
        else:
            assert sub.first_count == count
            assert delta < to_mpf(window, prec)
            assert sub.delta_turns_float == float(delta)

    @pytest.mark.parametrize("n_bits", [165, 166, 1000, 8192])
    @pytest.mark.parametrize("turns,cos", [(Fraction(1, 6), Fraction(1, 2)), (Fraction(1, 3), Fraction(-1, 2))])
    def test_rational_angles_report_an_exact_zero_delta(self, n_bits, turns, cos):
        # from N=165 the working precision used to leave rounding noise (4.4e-75 for 1/6 at N=165)
        sub = substitute_describable(turns, n_bits, Fraction(1, 1 << (n_bits - 2)))
        assert sub.cos_value == cos
        assert sub.first_count == (1 + cos) * (1 << (n_bits - 1))
        assert sub.delta_turns_float == 0.0

    def test_rational_cosines_never_touch_mpmath(self, monkeypatch):
        from mpmath import libmp

        def refuse(*args):
            raise AssertionError("an mpmath kernel ran for a rational cosine")

        for kernel in ("mpf_cos", "mpf_acos"):
            monkeypatch.setattr(libmp, kernel, refuse)
        for n_bits in (3, 16, 8192):
            for turns in (Fraction(0), Fraction(1, 6), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)):
                assert substitute_describable(turns, n_bits, Fraction(1, 1 << 40)).delta_turns_float == 0.0
        # an irrational cosine does use them
        with pytest.raises(AssertionError, match="mpmath kernel"):
            substitute_describable(Fraction(1, 8), 16, Fraction(1, 1 << 14))

    def test_a_decision_at_any_precision_is_the_exact_one(self):
        # each enclosure is one mpmath value widened by _KERNEL_SLACK; whatever precision closes it
        # must give the count, delta's double and window verdict of a 4N-bit recomputation
        rng = random.Random(26)
        closed = opened = 0
        for n_bits in (3, 4, 8, 16, 20, 64, 200):
            turns = [Fraction(1, 8), Fraction(3, 8), Fraction(1, 7), Fraction(23, 100), Fraction(2, 9)]
            turns += [Fraction(rng.randrange(den // 2 + 1), den) for den in rng.sample(range(2, 10**6), 10)]
            for t in turns:
                if exactmath.cos_exact(ExactAngle(t)) is not None:
                    continue  # exact without mpmath, where the oracle leaves rounding noise
                prec = max(4 * n_bits, 480)
                count, delta = oracle_substitution(t, n_bits, prec)
                windows = [Fraction(1, 1 << (n_bits - 2)), Fraction(1, 1 << (n_bits + 4)), Fraction(float(delta))]
                # just below and just above delta: their tests stay open until an enclosure is finer than 2**-k
                with mpmath.workprec(prec):
                    windows += [Fraction(int(rnd(delta * (1 << k))), 1 << k)
                                for k in (32, 64, 128) for rnd in (mpmath.floor, mpmath.ceil)]
                for window in windows:
                    cos = Fraction(2 * count, 1 << n_bits) - 1
                    exact = (count, cos, float(delta), bool(delta >= to_mpf(window, prec)))
                    for bits in (8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 320):
                        decided = experiments._decide(t, n_bits, window, bits)
                        opened += decided is None
                        if decided is not None:
                            closed += 1
                            assert decided == exact, (t, n_bits, window, bits)
        assert closed > 500 and opened > 500  # precisions from 8 bits leave many open

    def test_doubling_from_a_low_precision_gives_the_same_substitutions(self, monkeypatch):
        # from 8 bits some enclosures are left open, so the precision loop doubles until each is decided
        def outcome(turns, n_bits, window):
            try:
                sub = substitute_describable(turns, n_bits, window)
            except NoAdmissibleAngle as exc:
                return str(exc)
            return sub.first_count, sub.delta_turns_float

        # at N=3, 23/100 is 0.0013 above a half-integer count, whose lower neighbour has a rational angle
        cases = [(Fraction(t), n_bits, window)
                 for t in ("1/8", "3/8", "1/16", "1/7", "2/9", "5/13", "1/3", "1/6", "23/100")
                 for n_bits in (3, 8, 16, 64, 200)
                 for window in (Fraction(1, 1 << (n_bits - 2)), Fraction(1, 1 << (n_bits + 4)))]
        expected = [outcome(*case) for case in cases]
        # a window equal to a delta's double takes more bits than a double has to decide
        at_delta = [(turns, n_bits, Fraction(e[1])) for (turns, n_bits, _), e in zip(cases, expected)
                    if isinstance(e, tuple) and e[1]]
        cases += at_delta
        expected += [outcome(*case) for case in at_delta]
        assert any(isinstance(e, str) for e in expected) and any(isinstance(e, tuple) for e in expected)
        decide, decisions = experiments._decide, []

        def spy(*args):
            decisions.append(decide(*args))
            return decisions[-1]

        monkeypatch.setattr(experiments, "working_prec", lambda n_bits: 8)
        monkeypatch.setattr(experiments, "_decide", spy)
        assert [outcome(*case) for case in cases] == expected
        assert None in decisions  # an open enclosure

    def test_relative_turns_folds_to_half(self):
        assert relative_turns(angle(0), angle(7, 8)) == Fraction(1, 8)
        assert relative_turns(angle(1, 8), angle(3, 8)) == Fraction(1, 4)


class TestChsh:
    def test_all_zero_angles_give_classical_bound(self):
        cfg = ChshConfig(8, angle(0), angle(0), angle(0), angle(0))
        report = chsh_run(cfg)
        assert report.s_value == 2
        assert all(report.substitutions[pair].cos_value == 1 for pair in PAIR_NAMES)
        # every counterfactual is degenerate-admissible: nothing was switched far
        for actual in report.admissibility.values():
            for cell in actual.values():
                assert cell["verdict"] in ("actual", "admissible")

    def test_optimal_settings_near_tsirelson(self):
        report = chsh_run(ChshConfig(20, **OPTIMAL))
        with mpmath.workprec(240):
            target = 2 * mpmath.sqrt(2)
            s = mpmath.mpf(report.s_value.numerator) / report.s_value.denominator
            assert abs(s - target) < mpmath.mpf(2) ** -10

    def test_correlation_equals_substituted_cosine(self):
        for n_bits in (3, 12, 20):
            rec = chsh_run(ChshConfig(n_bits, **OPTIMAL)).record()
            for se in rec["sub_ensembles"].values():
                cos = Fraction(se["substitution"]["cos"])
                assert Fraction(se["correlation"]) == cos
                assert Fraction(se["agreement"]) == (1 + cos) / 2
                assert se["correlation_float_derived"] == float(cos)

    def test_sub_ensembles_are_distinct_records(self):
        rec = chsh_run(ChshConfig(12, **OPTIMAL)).record()
        assert set(rec["sub_ensembles"]) == {"A1B1", "A1B2", "A2B1", "A2B2"}

    def test_counterfactuals_all_excluded_at_optimal_settings(self):
        report = chsh_run(ChshConfig(20, **OPTIMAL))
        for actual, row in report.admissibility.items():
            for cf, cell in row.items():
                if cf == actual:
                    assert cell["verdict"] == "actual"
                else:
                    assert cell["verdict"] == "excluded"
                    assert cell["reason"] in (REASON_IRRATIONAL_SINE, REASON_PYTHAGOREAN)
                    assert cell["via"]

    def test_window_failure_propagates(self):
        cfg = ChshConfig(6, angle(0), angle(1, 10), angle(1, 7), angle(2, 7), Fraction(1, 1 << 40))
        with pytest.raises(NoAdmissibleAngle):
            chsh_run(cfg)

    @pytest.mark.parametrize("angles", [OPTIMAL, dict(a1=angle(0), a2=angle(1, 3), b1=angle(1, 6), b2=angle(1, 2))])
    def test_a_float_window_is_its_exact_value(self, angles):
        # irrational and rational cosines alike compare the window as a Fraction
        cfg = ChshConfig(16, **angles, window_turns=2.0 ** -14)
        assert cfg.window == Fraction(1, 1 << 14) and type(cfg.window) is Fraction
        assert chsh_run(cfg).record() == chsh_run(ChshConfig(16, **angles)).record()

    def test_s_is_the_exact_rational_combination(self):
        report = chsh_run(ChshConfig(10, **OPTIMAL))
        c = {pair: report.substitutions[pair].cos_value for pair in PAIR_NAMES}
        assert report.s_value == abs(c["A1B1"] - c["A1B2"]) + abs(c["A2B1"] + c["A2B2"])

    def test_sub_ensembles_are_closed_form_without_composition(self, monkeypatch):
        composed = []
        for name in ("compose_pair", "joint_counts"):
            original = getattr(multiqubit, name)
            monkeypatch.setattr(multiqubit, name, lambda *a, original=original: composed.append(a) or original(*a))
        rec = chsh_run(ChshConfig(10, **OPTIMAL)).record()
        assert composed == []
        for se in rec["sub_ensembles"].values():
            agreement = Fraction(se["substitution"]["first_count"], 1 << 10)
            assert Fraction(se["agreement"]) == agreement
            assert Fraction(se["correlation"]) == 2 * agreement - 1

    @pytest.mark.parametrize("n_bits", [25, 40, 1000])
    def test_runs_beyond_the_explicit_label_limit(self, n_bits):
        report = chsh_run(ChshConfig(n_bits, **OPTIMAL))
        with mpmath.workprec(240):
            s = mpmath.mpf(report.s_value.numerator) / report.s_value.denominator
            assert abs(s - 2 * mpmath.sqrt(2)) < mpmath.mpf(2) ** -(n_bits // 2)

    @pytest.mark.parametrize("angles,distinct", [
        (OPTIMAL, [Fraction(1, 8), Fraction(1, 4), Fraction(3, 8)]),
        (dict(a1=angle(0), a2=angle(1, 3), b1=angle(1, 6), b2=angle(1, 2)),
         [Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)]),
    ])
    def test_one_substitution_per_distinct_folded_angle(self, monkeypatch, angles, distinct):
        requested = []
        substitute = experiments.substitute_describable
        monkeypatch.setattr(experiments, "substitute_describable",
                            lambda t, *args: requested.append(t) or substitute(t, *args))
        report = chsh_run(ChshConfig(10, **angles))
        assert sorted(requested) == distinct
        settings = {"A1": angles["a1"], "A2": angles["a2"], "B1": angles["b1"], "B2": angles["b2"]}
        assert list(report.substitutions) == [*PAIR_NAMES, *BRIDGE_NAMES]
        for name, sub in report.substitutions.items():
            assert sub.requested_turns == relative_turns(settings[name[:2]], settings[name[2:]])
            assert sub == substitute(sub.requested_turns, 10, report.window_turns)
        rec = report.record()
        assert all(se["substitution"]["name"] == pair for pair, se in rec["sub_ensembles"].items())
        assert all(bridge["name"] == name for name, bridge in rec["bridges"].items())

    @pytest.mark.parametrize("angles", [OPTIMAL, dict(a1=angle(0), a2=angle(1, 3), b1=angle(1, 6), b2=angle(1, 2))])
    def test_each_distinct_bridge_pair_is_decided_once(self, monkeypatch, angles):
        decided = []
        decide = experiments.simultaneous_describability
        monkeypatch.setattr(experiments, "simultaneous_describability", lambda *a: decided.append(a) or decide(*a))
        chsh_run(ChshConfig(10, **angles))
        assert len(decided) == len(set(decided)) == 2

    def test_report_round_trip(self):
        rec = chsh_run(ChshConfig(10, **OPTIMAL)).record()
        assert set(rec["sub_ensembles"]) == {"A1B1", "A1B2", "A2B1", "A2B2"}
        assert isinstance(rec["s_value"], str) and "/" in rec["s_value"]


class TestChshAdmissibility:
    def test_irrational_sine_pair(self):
        v = simultaneous_describability(Fraction(1, 2), Fraction(3, 4), 4)
        assert v.excluded and v.reason == REASON_IRRATIONAL_SINE

    def test_degenerate_same_setting(self):
        v = simultaneous_describability(Fraction(1), Fraction(5, 8), 4)
        assert not v.excluded and v.reason == REASON_DESCRIBABLE

    def test_precondition(self):
        with pytest.raises(ValueError):
            simultaneous_describability(Fraction(2, 5), Fraction(1, 2), 4)


class TestMachZehnder:
    def test_which_way_is_balanced_for_every_admissible_phase(self):
        n_bits = 8
        for k in range(0, 1 << (n_bits - 1), 7):
            report = mz_run("which_way", angle(k, 1 << (n_bits - 1)), n_bits)
            assert report.probabilities["D_b"] == Fraction(1, 2)
            assert report.probabilities["D_not_b"] == Fraction(1, 2)

    def test_interference_zero_phase_fully_constructive(self):
        report = mz_run("interference", angle(0), 10)
        assert report.probabilities["D_c"] == 1

    def test_interference_sixty_degrees(self):
        report = mz_run("interference", angle(1, 6), 10)
        assert report.probabilities["D_c"] == Fraction(3, 4)
        assert not report.record()["counterfactual_admissible"]  # 1/6 turn is not dyadic

    def test_gate_failures_raise(self):
        with pytest.raises(NotOnInvariantSet):
            mz_run("which_way", angle(1, 3), 8)
        with pytest.raises(NotOnInvariantSet):
            mz_run("interference", angle(1, 8), 8)  # cos(pi/4) irrational
        with pytest.raises(ValueError):
            mz_run("both_ways", angle(0), 8)

    def test_exclusivity_on_dyadic_grid(self):
        # at N=10, on the full phase grid, the amplitude gate passes exactly on
        # the enumerated exceptional set {0, 1/4, 1/2, 3/4} of turns
        n_bits = 10
        exceptional = {Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)}
        both = set()
        for k in range(1 << (n_bits - 1)):
            phi = angle(k, 1 << (n_bits - 1))
            report = mz_run("which_way", phi, n_bits)
            assert report.phase_gate
            if report.amplitude_gate:
                both.add(phi.turns)
        assert both == exceptional

    @pytest.mark.parametrize("mode, phi_turns", [("which_way", Fraction(3, 128)), ("which_way", Fraction(1, 4)),
                                                 ("which_way", Fraction(1, 3)), ("interference", Fraction(1, 6)),
                                                 ("interference", Fraction(1, 8))])
    def test_each_gate_runs_once(self, monkeypatch, mode, phi_turns):
        calls = Counter()
        for module in (experiments, samplespace):  # every module that calls a gate on mz_run's way
            for name in ("gate_phase", "gate_amplitude"):
                def counted(*args, _gate=getattr(exactmath, name), _name=name):
                    calls[_name] += 1
                    return _gate(*args)
                monkeypatch.setattr(module, name, counted)
        try:
            mz_run(mode, ExactAngle(phi_turns), 10)
        except NotOnInvariantSet:
            pass
        assert calls == {"gate_phase": 1, "gate_amplitude": 1}

    def test_counterfactual_verdict_recorded(self):
        rec = mz_run("which_way", angle(3, 128), 10).record()
        assert rec["counterfactual_mode"] == "interference"
        assert not rec["counterfactual_admissible"]
        assert not rec["exceptional"]
        rec2 = mz_run("which_way", angle(1, 4), 10).record()
        assert rec2["exceptional"] and rec2["counterfactual_admissible"]
        rec3 = mz_run("interference", angle(1, 6), 10).record()
        assert rec3["counterfactual_mode"] == "which_way"
        assert not rec3["counterfactual_admissible"] and not rec3["exceptional"]


def pbr_oracle(alpha_t, beta_t, theta_t, prec=240):
    """Independent complex-amplitude route: combine expander amplitudes of the
    state (theta, theta, theta; a-b, a-b, -b) into the closed forms."""
    with mpmath.workprec(prec):
        amps = amplitude_table_mp(
            [theta_t, theta_t, theta_t],
            [(alpha_t - beta_t) % 1, (alpha_t - beta_t) % 1, (-beta_t) % 1],
            prec,
        )
        a = amps[0b00] + amps[0b11]
        b = amps[0b01] + amps[0b10]
        return abs(a) ** 2, abs(a - b) ** 2 - 2 * abs(b) ** 2


class TestPbrValues:
    def test_collapsed_theta_zero(self):
        assert pbr_values(angle(1, 7), angle(2, 9), angle(0)) == (1, 1)

    def test_collapsed_theta_half_turn(self):
        # cos(theta/2) = 0 kills every mixed term
        assert pbr_values(angle(1, 7), angle(2, 9), angle(1, 2)) == (1, 1)

    def test_exact_path_frozen_values(self):
        # theta = 1/4 turn, alpha = 1/2, beta = 1/6: all trig values rational
        x, z = pbr_values(angle(1, 2), angle(1, 6), angle(1, 4))
        assert x == Fraction(3, 4)
        assert z == Fraction(-1, 4)
        assert isinstance(x, Fraction) and isinstance(z, Fraction)

    def test_matches_amplitude_oracle_on_grid(self):
        rng = random.Random(123)
        with mpmath.workprec(240):
            tol = mpmath.mpf(2) ** -100
            for _ in range(120):
                at = Fraction(rng.randrange(0, 360), 360)
                bt = Fraction(rng.randrange(0, 360), 360)
                tt = Fraction(rng.randrange(0, 180), 360)
                x, z = pbr_values(ExactAngle(at), ExactAngle(bt), ExactAngle(tt))
                ox, oz = pbr_oracle(at, bt, tt)
                xv = mpmath.mpf(x.numerator) / x.denominator if isinstance(x, Fraction) else x
                zv = mpmath.mpf(z.numerator) / z.denominator if isinstance(z, Fraction) else z
                assert abs(xv - ox) < tol
                assert abs(zv - oz) < tol

    def test_bisection_finds_null_of_z(self):
        # root-finding oracle at high precision: bisect theta with the phases
        # fixed, then check |Z| < 2^-60 and X > 0 at the root
        alpha, beta = angle(1, 2), angle(1, 6)
        with mpmath.workprec(320):
            lo, hi = mpmath.mpf(1) / 1000, mpmath.mpf(1) / 4

            def z_at(t):
                turns = Fraction(int(t * (1 << 200)), 1 << 200)
                return pbr_values(alpha, beta, ExactAngle(turns), prec=320)[1]

            z_lo, z_hi = z_at(lo), z_at(hi)
            assert z_lo > 0 > z_hi
            for _ in range(260):
                mid = (lo + hi) / 2
                if z_at(mid) > 0:
                    lo = mid
                else:
                    hi = mid
            root = (lo + hi) / 2
            z_root = z_at(root)
            assert abs(z_root) < mpmath.mpf(2) ** -60
            turns = Fraction(int(root * (1 << 200)), 1 << 200)
            x_root = pbr_values(alpha, beta, ExactAngle(turns), prec=320)[0]
            assert x_root > 0


class TestPbrSimultaneity:
    def test_cosine_level_exclusion(self):
        v = simultaneous_describability(Fraction(1, 2), Fraction(3, 4), 2)
        assert v.excluded and v.reason == REASON_IRRATIONAL_SINE

    def test_beta_zero_degenerate(self):
        v = pbr_simultaneity(angle(5, 32), angle(0), 8)
        assert not v.excluded

    def test_nondegenerate_angle_pair_excluded(self):
        # alpha = 1/2, beta = 1/6 turn: cos(a-2b) = cos(b) = 1/2, both describable
        v = pbr_simultaneity(angle(1, 2), angle(1, 6), 8)
        assert v.excluded and v.reason == REASON_IRRATIONAL_SINE

    def test_irrational_cosines_violate_precondition(self):
        with pytest.raises(ValueError):
            pbr_simultaneity(angle(1, 10), angle(1, 5), 8)

    def test_run_report_follows_pbr_simultaneity(self):
        # applicable exactly where pbr_simultaneity's precondition holds, with its verdict
        grid = [angle(k, 24) for k in range(24)]
        for n_bits in (4, 8):
            for alpha in grid:
                for beta in grid:
                    sim = pbr_run(alpha, beta, angle(0), n_bits).simultaneity
                    try:
                        v = pbr_simultaneity(alpha, beta, n_bits)
                    except ValueError:
                        assert sim == {"applicable": False, "reason": "cos(alpha-2beta) or cos(beta) not describable"}
                    else:
                        assert sim == {"applicable": True, "verdict": v.verdict, "reason": v.reason}

    def test_run_report(self):
        rep = pbr_run(angle(1, 2), angle(1, 6), angle(1, 4), 8)
        assert isinstance(rep.x_value, Fraction) and isinstance(rep.z_value, Fraction)
        assert rep.simultaneity == {
            "applicable": True,
            "verdict": "sum_excluded",
            "reason": REASON_IRRATIONAL_SINE,
        }
        rep2 = pbr_run(angle(1, 10), angle(1, 7), angle(1, 9), 8)
        assert not isinstance(rep2.x_value, Fraction) and not rep2.simultaneity["applicable"]
        rec = rep2.record()
        assert rec["X"]["exact"] is None and "highprec_derived" in rec["X"]
