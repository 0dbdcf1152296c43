"""The claims table's own machinery: bounds, rows, memoised runs, the
closed forms the count rows hold single casts to, and the campaign
scenarios the rate rows measure.

``test_claims.py`` checks each row's number; these tests check what a
row's verdict rests on.  The orderings the paper states between counts
(A1 below [5], broadcast above genuine multicast once bystanders exist,
stage skipping saving intra-group copies) are read off the forms over
the whole grid, and a count off by one at a single cell must read 1 on
its row.
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
        ("_one_cast", "ablation-intra", "fig1a-a1-msgs"),
        ("_one_cast", "ablation-inter", "thm-5.1-vs-4.1"),
        ("_one_cast", "tradeoff-broadcast-msgs", "scale-a1-flat-in-groups"),
        ("_crash_run", "crash-undisturbed", "crash-degree"),
    ])
    def test_a_shared_run_runs_once(self, run, first, other):
        """Rows that share a run call it with the same cache key (an
        omitted default argument is a different key)."""
        by_id = {claim.id: claim for claim in CLAIMS}
        getattr(paper, run).cache_clear()
        by_id[first].measure()
        misses = getattr(paper, run).cache_info().misses
        by_id[other].measure()
        info = getattr(paper, run).cache_info()
        assert info.misses == misses
        assert info.hits > 0


def _form(protocol, column, k, d, g):
    return paper.FORMS[protocol][column](k, d, g)


def _plant(monkeypatch, protocol, column, grid):
    """Make ``_one_cast`` read one more in ``column`` for ``protocol`` at
    the last cell of ``grid``, and nowhere else; the rows by id."""
    real = paper._one_cast
    k, d, g = grid[-1]
    planted = (protocol, g if protocol == "a2" else k, d, g)

    def one_cast(*cell):
        run = list(real(*cell))
        run[column] += cell[:4] == planted
        return tuple(run)

    monkeypatch.setattr(paper, "_one_cast", one_cast)
    return {claim.id: claim for claim in CLAIMS}


class TestFigure1Forms:
    """The orderings Figure 1(a) states, read off the closed forms over
    the whole grid; the rows hold each run to its form."""

    @staticmethod
    def _over_grid(protocol, other, column):
        """(form, other form) at every grid cell, for one column."""
        return [(k, d, _form(protocol, column, k, d, g),
                 _form(other, column, k, d, g))
                for k, d, g in paper.FIG1A_GRID]

    def test_ring_sends_fewer_copies_than_a1_at_every_k(self):
        for k, d, ring, a1 in self._over_grid("ring", "a1", paper.INTER):
            assert ring < a1, (k, d)

    def test_a1_sends_no_more_copies_than_fritzke(self):
        for k, d, a1, fritzke in self._over_grid("a1", "fritzke",
                                                 paper.INTER):
            assert a1 <= fritzke, (k, d)

    def test_ring_degree_exceeds_a1_from_three_groups(self):
        cells = [cell for cell in self._over_grid("ring", "a1", paper.DEGREE)
                 if cell[0] >= 3]
        assert cells
        for k, d, ring, a1 in cells:
            assert ring > a1, (k, d)

    def test_a1_copies_grow_faster_than_the_group_size(self):
        """O(k^2 d^2): doubling d multiplies A1's copies by more than
        2.5 wherever the grid holds both sizes."""
        cells = [(k, d, g) for k, d, g in paper.FIG1A_GRID
                 if (k, 2 * d, g) in paper.FIG1A_GRID]
        assert cells
        for k, d, g in cells:
            assert (_form("a1", paper.INTER, k, 2 * d, g)
                    / _form("a1", paper.INTER, k, d, g)) > 2.5, (k, d)

    def test_sequencer_grows_quadratically_optimistic_linearly(self):
        """O(n^2) for [13], O(n) for [12]: doubling d multiplies their
        copies per broadcast by more than 2.5 and by less."""
        sequencer, optimistic = (paper.FIG1B_FORMS[p]
                                 for p in ("sequencer", "optimistic"))
        doubles = [d for d in paper.FIG1B_SIZES
                   if 2 * d in paper.FIG1B_SIZES]
        assert doubles
        for d in doubles:
            assert sequencer(2 * d) / sequencer(d) > 2.5, d
            assert optimistic(2 * d) / optimistic(d) < 2.5, d

    @pytest.mark.parametrize("protocol",
                             ["a1", "fritzke", "global", "ring", "skeen"])
    def test_a_planted_misfit_misses_its_row(self, monkeypatch, protocol):
        """One cell's count off by one reads 1 on that protocol's row."""
        by_id = _plant(monkeypatch, protocol, paper.INTER, paper.FIG1A_GRID)
        row = by_id[f"fig1a-{protocol}-msgs"]
        value = row.measure()
        assert value == 1 and not row.holds(value)
        assert by_id[f"fig1a-{protocol}-degree"].measure() == 0


class TestAblationForms:
    """Sections 4.1 / 6 over the ablation grid: what stage skipping saves
    and what [5]'s uniform multicast costs, read off the forms."""

    @staticmethod
    def _copies(protocol, k, d, g):
        """(inter-, intra-group copies) of ``protocol``'s cast."""
        return tuple(_form(protocol, column, k, d, g)
                     for column in (paper.INTER, paper.INTRA))

    def test_each_optimisation_strictly_cuts_total_copies(self):
        """... except [5]'s relays at k = d = 1, where the one addressee
        has no one to relay to."""
        for k, d, g in paper.ABLATION_GRID:
            a1, noskip, fritzke = (sum(self._copies(p, k, d, g))
                                   for p in paper.ABLATED)
            assert a1 < noskip <= fritzke, (k, d)
            assert noskip < fritzke or (k, d) == (1, 1), (k, d)

    def test_skipping_saves_intra_copies_only(self):
        for k, d, g in paper.ABLATION_GRID:
            a1, noskip = (self._copies(p, k, d, g)
                          for p in ("a1", "a1-noskip"))
            assert a1[0] == noskip[0] and a1[1] < noskip[1], (k, d)

    def test_skipping_saves_over_a_sixth_of_intra_copies(self):
        for k, d, g in paper.ABLATION_GRID:
            a1, noskip = (self._copies(p, k, d, g)[1]
                          for p in ("a1", "a1-noskip"))
            assert (noskip - a1) / noskip > 0.15, (k, d)

    def test_uniform_rmcast_relays_across_groups(self):
        for k, d, g in paper.ABLATION_GRID:
            noskip, fritzke = (self._copies(p, k, d, g)[0]
                               for p in ("a1-noskip", "fritzke"))
            assert fritzke > noskip if k > 1 else fritzke == noskip == 0

    @pytest.mark.parametrize("row, protocol, column", [
        ("ablation-inter", "a1", paper.INTER),
        ("ablation-inter", "a1-noskip", paper.INTER),
        ("ablation-intra", "a1", paper.INTRA),
        ("ablation-intra", "a1-noskip", paper.INTRA),
        ("ablation-uniform-rmcast", "fritzke", paper.INTER),
        ("ablation-uniform-rmcast", "fritzke", paper.INTRA),
        ("ablation-total", "a1", paper.INTRA),
    ])
    def test_a_planted_misfit_misses_its_row(self, monkeypatch, row,
                                             protocol, column):
        by_id = _plant(monkeypatch, protocol, column, paper.ABLATION_GRID)
        value = by_id[row].measure()
        assert value == 1 and not by_id[row].holds(value)
        assert by_id["ablation-degree"].measure() == 0


class TestGroupsForms:
    """Broadcast against genuine multicast as the group count G grows,
    read off the forms: per round for a warm broadcast, two rounds for a
    cold one."""

    @staticmethod
    def _per_op(protocol, g, d):
        copies = _form(protocol, paper.INTER, 2, d, g)
        return copies if protocol == "a1" else copies / paper.COLD_ROUNDS

    def test_a2_grows_with_groups_and_a1_stays_flat(self):
        for d in range(1, 4):
            assert self._per_op("a2", 6, d) / self._per_op("a2", 2, d) > 5
            assert len({self._per_op("a1", g, d)
                        for _, dd, g in paper.GROUPS_GRID if dd == d}) == 1

    def test_genuine_multicast_wins_with_bystanders_only(self):
        for d in range(1, 4):
            assert self._per_op("a2", 6, d) / self._per_op("a1", 6, d) > 5
            assert self._per_op("a2", 2, d) / self._per_op("a1", 2, d) < 1.5

    def test_a_cold_a2_cast_at_two_groups_is_two_figure_1b_rounds(self):
        for d in paper.FIG1B_SIZES:
            assert (_form("a2", paper.INTER, 2, d, 2)
                    == paper.COLD_ROUNDS * paper.FIG1B_FORMS["a2"](d))

    def test_broadcast_gap_widens_with_groups(self):
        """A cold broadcast-to-all cast over A1's: over 2 at 6 groups,
        and growing with every group added."""
        for d in range(1, 4):
            gaps = [_form("nongenuine", paper.INTER, 2, d, g)
                    / _form("a1", paper.INTER, 2, d, g) for g in range(2, 9)]
            assert gaps[4] > 2
            assert all(a < b for a, b in zip(gaps, gaps[1:])), d

    @pytest.mark.parametrize("row, protocol, column", [
        ("scale-a1-flat-in-groups", "a1", paper.INTER),
        ("scale-a2-grows-with-groups", "a2", paper.INTER),
        ("scale-crossover", "a2", paper.INTER),
        ("tradeoff-broadcast-msgs", "nongenuine", paper.INTER),
        ("tradeoff-broadcast-msgs", "a1", paper.INTER),
        ("tradeoff-gap-widens", "nongenuine", paper.INTER),
        ("tradeoff-broadcast-discards", "nongenuine", paper.DISCARDED),
        ("tradeoff-genuine-discards", "a1", paper.DISCARDED),
        ("tradeoff-genuine-degree", "a1", paper.DEGREE),
    ])
    def test_a_planted_misfit_misses_its_row(self, monkeypatch, row,
                                             protocol, column):
        by_id = _plant(monkeypatch, protocol, column, paper.GROUPS_GRID)
        value = by_id[row].measure()
        assert value == 1 and not by_id[row].holds(value)
        assert by_id["scale-small-system"].measure() == 0


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
