"""The claims table's own machinery: bounds, rows, memoised runs, and the
campaign scenarios the rate and scalability rows measure.

``test_claims.py`` checks each row's number; these tests check what a
row's verdict rests on, without running the sweeps.
"""

import dataclasses
import math
from collections import defaultdict

import pytest

from repro import paper
from repro.campaigns.library import get_campaign, rate_scenario
from repro.cli import main
from repro.paper import CLAIMS, OPS, Claim


def _claim(op, limit):
    return Claim("x", "Thm 0", "a statement", lambda: 0, (op, limit))


class TestBound:
    @pytest.mark.parametrize("op, limit, value, holds", [
        ("==", 2, 2, True), ("==", 2, 3, False),
        ("<=", 1, 1, True), ("<=", 1, 1.01, False),
        ("<", 0, -1, True), ("<", 0, 0, False),
        (">=", 2, 2, True), (">=", 2, 1, False),
        (">", 0.9, 0.91, True), (">", 0.9, 0.9, False),
    ])
    def test_holds(self, op, limit, value, holds):
        """Strict bounds are strict: a value on the limit misses them."""
        assert _claim(op, limit).holds(value) is holds

    @pytest.mark.parametrize("op", sorted(OPS))
    def test_nan_meets_no_bound(self, op):
        """A claim over points that disagree measures NaN and misses."""
        assert not _claim(op, 0).holds(math.nan)

    def test_unknown_op_cannot_be_judged(self):
        with pytest.raises(KeyError):
            _claim("~", 1).holds(1)


class TestUniform:
    def test_agreeing_points_measure_their_value(self):
        assert paper._uniform([2, 2, 2]) == 2

    def test_disagreeing_points_measure_nan(self):
        assert math.isnan(paper._uniform([2, 2, 3]))


class TestRows:
    def test_every_bound_is_a_known_op_and_a_finite_limit(self):
        for claim in CLAIMS:
            op, limit = claim.bound
            assert op in OPS, claim.id
            assert math.isfinite(limit), claim.id

    def test_every_row_has_a_stable_id_source_and_statement(self):
        for claim in CLAIMS:
            assert claim.id == claim.id.strip().lower(), claim.id
            assert " " not in claim.id, claim.id
            assert claim.source and claim.statement, claim.id

    def test_every_paper_artefact_has_a_row(self):
        sources = {claim.source for claim in CLAIMS}
        for artefact in ("Thm 4.1", "Thm 5.1", "Thm 5.2", "Prop 3.1-3.2",
                         "Prop 3.3", "Fig 1(a)", "Fig 1(b)", "§5.3"):
            assert artefact in sources


class TestMemoisedRuns:
    @pytest.mark.parametrize("run, first, other", [
        ("_one_cast", "thm-4.1", "thm-5.1-vs-4.1"),
        ("_crash_run", "crash-undisturbed", "crash-degree"),
    ])
    def test_a_shared_run_runs_once(self, run, first, other):
        """Rows that share a run call it with the same cache key (an
        omitted default argument is a different key)."""
        by_id = {claim.id: claim for claim in CLAIMS}
        by_id[first].measure()
        misses = getattr(paper, run).cache_info().misses
        by_id[other].measure()
        info = getattr(paper, run).cache_info()
        assert info.misses == misses
        assert info.hits > 0


class TestFigure1Forms:
    """The orderings Figure 1(a) states, read off the closed forms over
    the whole grid; the rows hold each run to its form."""

    @staticmethod
    def _over_grid(protocol, other, column):
        """(form, other form) at every grid cell, for one column."""
        form = paper.FIG1A_FORMS[protocol][column]
        other_form = paper.FIG1A_FORMS[other][column]
        return [(k, d, form(k, d), other_form(k, d))
                for k, d in paper.FIG1A_GRID]

    def test_ring_sends_fewer_copies_than_a1_at_every_k(self):
        for k, d, ring, a1 in self._over_grid("ring", "a1", 1):
            assert ring < a1, (k, d)

    def test_a1_sends_no_more_copies_than_fritzke(self):
        for k, d, a1, fritzke in self._over_grid("a1", "fritzke", 1):
            assert a1 <= fritzke, (k, d)

    def test_ring_degree_exceeds_a1_from_three_groups(self):
        cells = [cell for cell in self._over_grid("ring", "a1", 0)
                 if cell[0] >= 3]
        assert cells
        for k, d, ring, a1 in cells:
            assert ring > a1, (k, d)

    @pytest.mark.parametrize("protocol", sorted(paper.FIG1A_FORMS))
    def test_a_planted_misfit_misses_its_row(self, monkeypatch, protocol):
        """One cell's count off by one reads 1 on that protocol's row."""
        real = paper._one_cast
        planted = paper.FIG1A_GRID[-1]

        def one_cast(p, k, d, seed=1):
            degree, copies = real(p, k, d, seed)
            return degree, copies + ((p, k, d) == (protocol, *planted))

        monkeypatch.setattr(paper, "_one_cast", one_cast)
        by_id = {claim.id: claim for claim in CLAIMS}
        row = by_id[f"fig1a-{protocol}-msgs"]
        value = row.measure()
        assert value == 1 and not row.holds(value)
        assert by_id[f"fig1a-{protocol}-degree"].measure() == 0


def _points(monkeypatch, name, result):
    """The arguments every row calls ``paper.<name>`` with, measured
    against a stand-in that runs nothing."""
    calls = []

    def record(*args):
        calls.append(args)
        return result

    monkeypatch.setattr(paper, name, record)
    for claim in CLAIMS:
        claim.measure()
    return set(calls)


class TestCampaignPoints:
    def test_rate_rows_measure_rate_sweep_scenarios(self, monkeypatch):
        """Each rate row's run is a ``rate-sweep`` scenario over a
        shorter window."""
        rates = _points(monkeypatch, "_rate", defaultdict(lambda: 1.0))
        assert rates
        campaign = {spec.name: spec
                    for spec in get_campaign("rate-sweep").scenarios}
        for (rate,) in rates:
            spec = rate_scenario(rate, duration_ms=10_000.0)
            full = dataclasses.replace(spec, workload=dataclasses.replace(
                spec.workload, duration=20_000.0))
            assert campaign[spec.name] == full

    def test_scale_rows_measure_scalability_scenarios(self, monkeypatch):
        points = _points(monkeypatch, "_scale", (1.0, 1.0))
        assert points
        names = {spec.name
                 for spec in get_campaign("scalability").scenarios}
        for protocol, groups, d in points:
            assert f"{protocol}@{groups}x{d}" in names


class TestPaperOutput:
    def test_table_has_the_five_columns(self, capsys):
        assert main(["paper", "thm-4.1"]) == 0
        header = capsys.readouterr().out.splitlines()[2].split()
        assert header == ["id", "source", "measured", "bound", "ok"]

    def test_list_shows_every_claim_in_table_order(self, capsys):
        assert main(["--list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        start = lines.index(
            "claims (python -m repro.cli paper [ID_PREFIX ...]):") + 1
        listed = [line.split()[0] for line in lines[start:start + len(CLAIMS)]]
        assert listed == [claim.id for claim in CLAIMS]
