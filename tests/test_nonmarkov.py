import tracemalloc

import numpy as np
import pytest

from gatemem.channels import GateLabel, QuantumChannel, compose
from gatemem import nonmarkov
from gatemem.exceptions import DimensionError, SingularChannelError, SolverError, ValidationError
from gatemem.nonmarkov import (
    analyze_grid,
    avg_trace_distance,
    conditional_grid,
    conditional_map,
    conditional_vs_marginal_matrix,
    cp_violation,
    gate_dependence_matrix,
    markovian_choi_reference,
    memory_scan,
    process_tensor_proxy,
    statistical_floor,
)
from gatemem.qcore import (
    DEFAULT_AVG_SAMPLES,
    DEFAULT_SCAN_NMAX,
    DensityMatrix,
    _complex_normals,
    _half_trace_norm,
)
from gatemem.simulator import build_default_model, extract_channel

from conftest import _haar_vectors, ideal_channel, random_channel, random_density


@pytest.fixture(scope="module")
def memory_channels():
    labels = [GateLabel(n, (0,)) for n in ("H", "S", "T", "X", "Y", "Z")]
    model = build_default_model(labels, coupling=0.55, reset_policy="persistent")
    singles = {l: extract_channel(model, [l]) for l in labels}
    joints = {
        (u, v): extract_channel(model, [u, v]) for u in labels for v in labels
    }
    return labels, singles, joints


class TestConditionalMap:
    def test_markovian_composition_recovers_second_gate(self, rng):
        phi_u = random_channel(2, rng)
        phi_v = random_channel(2, rng)
        cm = conditional_map(compose(phi_v, phi_u), phi_u)
        assert np.max(np.abs(cm.channel.superop - phi_v.superop)) <= 1e-10

    def test_unitary_algebra(self):
        x = ideal_channel(GateLabel("X", (0,)))
        z = ideal_channel(GateLabel("Z", (0,)))
        cm = conditional_map(compose(z, x), x)
        assert np.max(np.abs(cm.channel.superop - z.superop)) <= 1e-12

    def test_propagates_singular_channel(self):
        from gatemem.channels import vec

        dep = QuantumChannel(np.outer(vec(np.eye(2) / 2), vec(np.eye(2)).conj()))
        with pytest.raises(SingularChannelError):
            conditional_map(QuantumChannel(np.eye(4)), dep)

    def test_reconstruction_invariant(self, memory_channels):
        labels, singles, joints = memory_channels
        u, v = labels[3], labels[5]
        cm = conditional_map(joints[(u, v)], singles[u])
        rebuilt = compose(cm.channel, singles[u])
        assert np.max(np.abs(rebuilt.superop - joints[(u, v)].superop)) <= 1e-8 * cm.cond_number

    def test_first_gate_map_is_decomposed_once(self, rng, monkeypatch):
        phi_u, phi_v = random_channel(4, rng), random_channel(4, rng)
        svd = np.linalg.svd
        calls = []

        def spy(mat, *args, **kwargs):
            calls.append(mat.shape)
            return svd(mat, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        cm = conditional_map(compose(phi_v, phi_u), phi_u)
        assert calls == [(16, 16)]
        s = svd(phi_u.superop, compute_uv=False)
        assert cm.cond_number == s[0] / s[-1]

    def test_memory_shows_in_distance_to_marginal(self, memory_channels, rng):
        labels, singles, joints = memory_channels
        u, v = labels[3], labels[5]
        cm = conditional_map(joints[(u, v)], singles[u])
        dist = avg_trace_distance(cm.channel, singles[v], 20_000, rng)
        assert dist.mean > 0.01  # far above any statistical floor


class TestCpViolation:
    def test_identity_channel_vanishes(self):
        assert cp_violation(QuantumChannel(np.eye(4))) == 0.0

    def test_transpose_map_is_one(self):
        # transpose superoperator in column stacking is the swap matrix;
        # oracle: its normalized operator representation has eigenvalues
        # (1/2, 1/2, 1/2, -1/2)
        swap = np.zeros((4, 4), dtype=complex)
        swap[0, 0] = swap[3, 3] = swap[1, 2] = swap[2, 1] = 1.0
        from gatemem.channels import choi_from_superop

        transpose = QuantumChannel(swap)
        eigs = np.sort(np.linalg.eigvalsh(choi_from_superop(transpose).data / 2))
        np.testing.assert_allclose(eigs, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)
        assert cp_violation(transpose) == pytest.approx(1.0, abs=1e-12)

    def test_random_cptp_channels_vanish(self, rng):
        for _ in range(50):
            assert cp_violation(random_channel(2, rng)) <= 1e-9

    def test_zero_iff_choi_positive(self, rng):
        from gatemem.channels import choi_from_superop

        for _ in range(20):
            a, b = random_channel(2, rng), random_channel(2, rng)
            mix = QuantumChannel(1.3 * a.superop - 0.3 * b.superop)
            value = cp_violation(mix)
            min_eig = np.linalg.eigvalsh(choi_from_superop(mix).data)[0]
            if value == 0.0:
                assert min_eig >= -1e-10
            else:
                assert min_eig < -1e-10 or value < 1e-9

    def test_persistent_memory_detected(self, memory_channels):
        labels, singles, joints = memory_channels
        values = [
            cp_violation(conditional_map(joints[(u, v)], singles[u]))
            for u in labels
            for v in labels
        ]
        assert min(values) > 0.01


#: Samples per slice of the averaged distance, 16_000 // d
WIDTHS = {2: 8_000, 3: 5_333, 4: 4_000, 8: 2_000}


class TestAvgTraceDistance:
    def test_equal_channels_exactly_zero(self, rng):
        chan = random_channel(2, rng)
        result = avg_trace_distance(chan, chan, 100, rng)
        assert result.mean == 0.0

    def test_default_sample_count(self):
        assert DEFAULT_AVG_SAMPLES == 100_000

    def test_identity_vs_bit_flip_against_analytic_oracle(self):
        # for pure inputs and unitary channels the distance has the
        # closed form sqrt(1 - |<psi|X|psi>|^2); average 1e6 of them
        rng = np.random.default_rng(99)
        z = rng.standard_normal((1_000_000, 2)) + 1j * rng.standard_normal((1_000_000, 2))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        overlap = z[:, 0] * np.conj(z[:, 1]) + z[:, 1] * np.conj(z[:, 0])
        oracle_samples = np.sqrt(1.0 - np.abs(overlap) ** 2)
        oracle = oracle_samples.mean()
        oracle_se = oracle_samples.std(ddof=1) / 1000.0

        result = avg_trace_distance(
            QuantumChannel(np.eye(4)),
            ideal_channel(GateLabel("X", (0,))),
            100_000,
            np.random.default_rng(5),
        )
        assert abs(result.mean - oracle) <= 3 * (result.stderr + oracle_se)

    def test_samples_exposed_for_histograms(self, rng):
        result = avg_trace_distance(
            QuantumChannel(np.eye(4)), ideal_channel(GateLabel("Z", (0,))), 500, rng
        )
        assert result.samples.shape == (500,)
        assert result.stderr > 0.0

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionError):
            avg_trace_distance(QuantumChannel(np.eye(4)), QuantumChannel(np.eye(16)), 10, rng)

    @pytest.mark.parametrize("d", [2, 4])
    def test_matches_eigvalsh_reference_on_the_same_draws(self, d):
        # 45,000 samples: two full batches of 20,000 and a partial one
        self._check_against_eigvalsh_reference(d, 45_000, "channels")

    @pytest.mark.parametrize("d, m_samples, maps", [
        *((d, m, maps) for d in (2, 4) for m, maps in [
            (1, "channels"), (20_000, "channels"), (20_001, "channels"),
            (1, "raw"), (20_000, "raw"), (20_001, "raw"), (45_000, "raw"),
        ]),
        *((3, m, maps) for maps in ("channels", "raw") for m in (1, 1_777, 1_778, 20_001, 45_000)),
        *((d, m, "channels") for d in (2, 3, 4, 8) for m in (2 * WIDTHS[d], 2 * WIDTHS[d] + 1)),
    ])
    def test_batch_edges_and_raw_maps_match_eigvalsh_reference(self, d, m_samples, maps):
        # 20,000 samples fill one batch exactly, 20,001 start a second one.
        # A slice holds 16_000 // d samples (WIDTHS; 5,333 at d = 3 do not
        # divide a batch); twice the width fills the last slice exactly, and
        # one sample more leaves a one-sample slice
        self._check_against_eigvalsh_reference(d, m_samples, maps)

    def test_three_qubit_outputs_match_eigvalsh_reference(self):
        # d = 8 outputs are assembled from their entries for eigvalsh; the
        # second of the two slices (2,000 samples each) holds one sample
        self._check_against_eigvalsh_reference(8, 2_001, "raw")

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    @pytest.mark.parametrize("rest", [1, 3])
    def test_slices_give_the_samples_and_stream_of_one_pass(self, d, rest):
        # three slices of one batch, the last of 1 or 3 samples, their
        # imaginary parts drawn one slice at a time, against one pass of the
        # kernel over one draw of the whole batch: every sample has the same
        # bits, and the generator ends where that draw leaves it
        m_samples = 2 * WIDTHS[d] + rest
        rng = np.random.default_rng(2024)
        a = random_channel(d, rng)
        b = conditional_map(random_channel(d, rng), random_channel(d, rng)).channel
        gen = np.random.default_rng(11)
        result = avg_trace_distance(a, b, m_samples, gen)

        ref_rng = np.random.default_rng(11)
        re, im = _complex_normals(d, m_samples, ref_rng)
        expected = np.empty(m_samples)
        transfer = nonmarkov._hermitian_transfer(a.superop - b.superop)
        nonmarkov._half_norms(transfer, re, im, nonmarkov._workspace(d, m_samples), expected)
        assert np.array_equal(result.samples, expected)
        assert gen.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("d, limit", [(2, 3_000_000), (4, 4_000_000)])
    def test_paper_scale_call_stays_small(self, d, limit):
        # 100,000 samples: the samples (0.8 MB), a batch's real parts (0.3
        # MB at d = 2, 0.6 MB at d = 4) and the workspace (0.6 MB at d = 2,
        # 1.2 MB at d = 4) dominate; one slice's imaginary parts (0.1 MB)
        # add the rest, and no batch's draw outlives its slices
        rng = np.random.default_rng(2024)
        a = random_channel(d, rng)
        b = conditional_map(random_channel(d, rng), random_channel(d, rng)).channel
        tracemalloc.start()
        try:
            avg_trace_distance(a, b, 100_000, np.random.default_rng(11))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit

    def test_paper_scale_scan_stays_small(self):
        # 15 cells at 100,000 samples (n = 6) peak as one call does (2.0
        # MB): a scan whose cells kept their samples would need 12 MB more,
        # and one that held a cell's samples while drawing the next 0.8 MB
        rng = np.random.default_rng(2024)
        chans = [random_channel(2, rng) for _ in range(6)]
        tracemalloc.start()
        try:
            memory_scan(chans, metrics=("avg",), m_samples=100_000, rng=np.random.default_rng(11))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2_500_000

    @staticmethod
    def _check_against_eigvalsh_reference(d, m_samples, maps):
        rng = np.random.default_rng(2024)
        if maps == "channels":
            a = random_channel(d, rng)
            b = conditional_map(random_channel(d, rng), random_channel(d, rng)).channel  # non-CP
        else:
            # complex superoperators that preserve neither trace nor Hermiticity
            a, b = (QuantumChannel(rng.standard_normal((d * d, d * d))
                                   + 1j * rng.standard_normal((d * d, d * d)))
                    for _ in range(2))
        gen = np.random.default_rng(11)
        result = avg_trace_distance(a, b, m_samples, gen)

        # reference: apply each channel to each density matrix, subtract,
        # and take eigenvalues of the Hermitian part
        ref_rng = np.random.default_rng(11)
        expected = []
        for start in range(0, m_samples, 20_000):
            count = min(20_000, m_samples - start)
            z = _haar_vectors(d, count, ref_rng)
            rhos = np.einsum("ni,nj->nij", z, z.conj())
            vecs = rhos.reshape(count, d * d, order="F")
            outs = [(vecs @ c.superop.T).reshape(count, d, d, order="F") for c in (a, b)]
            diff = outs[0] - outs[1]
            herm = 0.5 * (diff + np.conj(np.swapaxes(diff, -1, -2)))
            expected.append(0.5 * np.sum(np.abs(np.linalg.eigvalsh(herm)), axis=-1))
        expected = np.concatenate(expected)

        np.testing.assert_allclose(result.samples, expected, rtol=0, atol=1e-12)
        assert result.mean == pytest.approx(expected.mean(), rel=0, abs=1e-12)
        expected_stderr = expected.std(ddof=1) / np.sqrt(expected.size) if m_samples > 1 else 0.0
        assert result.stderr == pytest.approx(expected_stderr, rel=0, abs=1e-12)
        # the kernel leaves the generator where those batches left it, so
        # the streams of later calls see the same inputs
        assert gen.bit_generator.state == ref_rng.bit_generator.state


class TestGateDependence:
    def test_identical_conditionals_give_zero_matrix(self, rng):
        chan = random_channel(2, rng)
        conditionals = {f"G{i}": chan for i in range(3)}
        matrix = gate_dependence_matrix(conditionals, m_samples=200, rng=rng)
        assert np.max(matrix.values) == 0.0

    def test_symmetry_and_zero_diagonal(self, memory_channels, rng):
        labels, singles, joints = memory_channels
        v = labels[5]
        conditionals = {
            str(u): conditional_map(joints[(u, v)], singles[u]) for u in labels[:4]
        }
        matrix = gate_dependence_matrix(conditionals, m_samples=2_000, rng=rng)
        np.testing.assert_allclose(matrix.values, matrix.values.T, atol=1e-12)
        assert np.max(np.abs(np.diag(matrix.values))) <= 1e-12

    def test_memory_produces_structure(self, memory_channels, rng):
        labels, singles, joints = memory_channels
        v = labels[5]
        conditionals = {
            str(u): conditional_map(joints[(u, v)], singles[u]) for u in labels
        }
        matrix = gate_dependence_matrix(conditionals, m_samples=5_000, rng=rng)
        off_diagonal = matrix.values[~np.eye(len(labels), dtype=bool)]
        assert off_diagonal.max() > 0.01

    def test_cells_draw_upper_triangle_from_the_shared_generator(self, rng):
        conditionals = {g: random_channel(2, rng) for g in "ABCD"}
        matrix = gate_dependence_matrix(conditionals, m_samples=300,
                                        rng=np.random.default_rng(6))
        shared = np.random.default_rng(6)
        chans = list(conditionals.values())
        expected = np.zeros((4, 4))
        for i in range(4):
            for j in range(i + 1, 4):
                expected[i, j] = expected[j, i] = avg_trace_distance(
                    chans[i], chans[j], 300, shared).mean
        np.testing.assert_array_equal(matrix.values, expected)

    def test_needs_two_gates(self, rng):
        with pytest.raises(ValidationError):
            gate_dependence_matrix({"A": random_channel(2, rng)}, m_samples=10, rng=rng)


class TestConditionalVsMarginal:
    def test_markovian_inputs_give_zero_matrix(self, rng):
        gates = ["A", "B", "C"]
        marginals = {g: random_channel(2, rng) for g in gates}
        joints = {
            (u, v): compose(marginals[v], marginals[u]) for u in gates for v in gates
        }
        matrix = conditional_vs_marginal_matrix(marginals, joints, m_samples=500, rng=rng)
        assert np.max(matrix.values) <= 1e-8

    def test_memory_gives_nonconstant_columns(self, memory_channels, rng):
        labels, singles, joints = memory_channels
        matrix = conditional_vs_marginal_matrix(
            singles, joints, m_samples=2_000, rng=rng
        )
        # paper-style signature: for a fixed second gate the entries vary
        # with the first gate
        spread = matrix.values.max(axis=0) - matrix.values.min(axis=0)
        assert spread.max() > 0.005

    def test_scaling_flags_change_entries_by_stated_factors(self, memory_channels):
        labels, singles, joints = memory_channels
        sub_joints = {(labels[0], labels[1]): joints[(labels[0], labels[1])]}
        plain, scaled = (
            analyze_grid(singles, sub_joints, metrics=("diamond",), m_samples=100,
                         scale_figure=flag).cond_vs_marginal["diamond"]
            for flag in (False, True)
        )
        assert plain.scaling == ()
        assert scaled.values[0, 0] == pytest.approx(plain.values[0, 0] / 2, rel=1e-6)
        assert "diamond/2" in scaled.scaling

    def test_cells_draw_row_major_from_the_shared_generator(self, rng):
        firsts, seconds = ["A", "B", "C"], ["D", "E"]
        marginals = {g: random_channel(2, rng) for g in firsts + seconds}
        joints = {(u, v): compose(random_channel(2, rng), marginals[u])
                  for u in firsts for v in seconds}
        matrix = conditional_vs_marginal_matrix(marginals, joints, m_samples=300,
                                                rng=np.random.default_rng(5))
        shared = np.random.default_rng(5)
        expected = [[avg_trace_distance(conditional_map(joints[(u, v)], marginals[u]).channel,
                                        marginals[v], 300, shared).mean for v in seconds]
                    for u in firsts]
        np.testing.assert_array_equal(matrix.values, expected)

    def test_missing_channel_raises(self, rng):
        from gatemem.exceptions import IncompleteDataError

        marginals = {"A": random_channel(2, rng)}
        joints = {("A", "B"): random_channel(2, rng)}
        with pytest.raises(IncompleteDataError):
            conditional_vs_marginal_matrix(marginals, joints, m_samples=10, rng=rng)

    def test_no_joint_maps_is_an_incomplete_grid(self, rng):
        from gatemem.exceptions import IncompleteDataError

        with pytest.raises(IncompleteDataError):
            conditional_vs_marginal_matrix({"A": random_channel(2, rng)}, {}, m_samples=10)

    def test_analyze_grid_inverts_each_first_gate_once(self, rng, monkeypatch):
        gates = ["A", "B", "C"]
        marginals = {g: random_channel(2, rng) for g in gates}
        joints = {(u, v): compose(random_channel(2, rng), marginals[u])
                  for u in gates for v in gates}
        expected = conditional_vs_marginal_matrix(marginals, joints, m_samples=200,
                                                  rng=np.random.default_rng(3))
        _, _, maps = conditional_grid(marginals, joints)
        for (u, v), cm in maps.items():  # the cells of conditional_map, bit for bit
            ref = conditional_map(joints[(u, v)], marginals[u])
            np.testing.assert_array_equal(cm.channel.superop, ref.channel.superop)
            assert cm.cond_number == ref.cond_number
        build = nonmarkov.invert
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(nonmarkov, "invert", spy)
        analysis = analyze_grid(marginals, joints, metrics=("avg",), m_samples=200, seed=3)
        assert len(calls) == len(gates)  # one per first gate of the 3 x 3 grid
        assert all(args[0] is marginals[g] for args, g in zip(calls, gates))
        np.testing.assert_array_equal(analysis.cond_vs_marginal["avg"].values, expected.values)

    def test_each_output_draws_from_its_named_stream(self, rng):
        # each conditioned-vs-marginal matrix draws row-major from a fresh
        # default_rng(seed), each target's gate-dependence matrix its upper
        # triangle from a fresh default_rng(seed + 1), the histogram from
        # default_rng(seed + 2), and a scan's cells, metric after metric in
        # cut order, from the caller's generator
        firsts, seconds = ["H@0", "X@0", "Z@0"], ["S@0", "T@0"]
        marginals = {g: random_channel(2, rng) for g in firsts + seconds}
        joints = {(u, v): compose(random_channel(2, rng), marginals[u])
                  for u in firsts for v in seconds}
        analysis = analyze_grid(marginals, joints, metrics=("avg", "diamond"), m_samples=300,
                                seed=4, pair=("X@0", "T@0"))
        for metric in ("avg", "diamond"):
            expected = conditional_vs_marginal_matrix(marginals, joints, metric, 300,
                                                      np.random.default_rng(4))
            np.testing.assert_array_equal(analysis.cond_vs_marginal[metric].values,
                                          expected.values)
            for v in seconds:
                conditionals = {u: conditional_map(joints[(u, v)], marginals[u])
                                for u in firsts}
                expected = gate_dependence_matrix(conditionals, metric, 300,
                                                  np.random.default_rng(5))
                np.testing.assert_array_equal(analysis.gate_dependence[(v, metric)].values,
                                              expected.values)
        expected = avg_trace_distance(conditional_map(joints[("X@0", "T@0")], marginals["X@0"])
                                      .channel, marginals["T@0"], 300, np.random.default_rng(6))
        np.testing.assert_array_equal(analysis.histogram.samples, expected.samples)
        assert (analysis.histogram.mean, analysis.histogram.stderr) == (expected.mean,
                                                                       expected.stderr)

        chans = [random_channel(2, rng) for _ in range(4)]
        scan = memory_scan(chans, metrics=("avg", "diamond"), m_samples=300,
                           rng=np.random.default_rng(9))
        shared = np.random.default_rng(9)
        for n, m in sorted(scan.entries):
            a, b = chans[n - 1], compose(chans[m - 1], chans[n - m - 1])
            assert scan.entries[(n, m)] == {
                "avg": avg_trace_distance(a, b, 300, shared).mean,
                "diamond": nonmarkov.diamond_distance(a, b).value}

    def test_distance_functions_see_every_cell_at_their_module_names(self, rng, monkeypatch):
        # wrapping the module attributes, as the benchmark's tracer does,
        # must see each matrix cell and the histogram
        firsts, seconds = ["A", "B", "C"], ["D", "E"]
        marginals = {g: random_channel(2, rng) for g in firsts + seconds}
        joints = {(u, v): compose(random_channel(2, rng), marginals[u])
                  for u in firsts for v in seconds}
        calls = {"avg_trace_distance": 0, "diamond_distance": 0}
        for name in calls:
            def counted(*args, _fn=getattr(nonmarkov, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(nonmarkov, name, counted)
        analyze_grid(marginals, joints, metrics=("avg", "diamond"), m_samples=100)
        cells = 3 * 2 + 2 * 3  # conditioned vs marginal, plus 3 pairs per target
        assert calls == {"avg_trace_distance": cells + 1, "diamond_distance": cells}


    @pytest.mark.parametrize("failing_call, label", [
        (1, "avg cell A,D"), (2, "avg cell B,D"), (3, "avg cell A,D vs B,D"),
        (4, "histogram cell A,D"),
    ])
    def test_an_error_names_its_cell_and_keeps_its_type(self, rng, monkeypatch, failing_call,
                                                        label):
        # the averaged cells run conditioned-vs-marginal, then the target's
        # gate dependence, then the histogram
        marginals = {g: random_channel(2, rng) for g in "ABD"}
        joints = {(u, "D"): compose(random_channel(2, rng), marginals[u]) for u in "AB"}
        calls = []

        def failing(*args, _fn=nonmarkov.avg_trace_distance, **kwargs):
            calls.append(args)
            if len(calls) == failing_call:
                raise SingularChannelError("sampled map is singular", 0.0, 1.0)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(nonmarkov, "avg_trace_distance", failing)
        with pytest.raises(SingularChannelError) as err:
            analyze_grid(marginals, joints, m_samples=100)
        assert str(err.value) == f"{label}: sampled map is singular"
        assert (err.value.sigma_min, err.value.sigma_max) == (0.0, 1.0)


class TestAnalyzeGridPair:
    def test_pair_is_found_by_canonical_token_whatever_the_grid_keys(self, memory_channels):
        # in process a grid is keyed by gate labels; load_grid keys it by tokens
        labels, singles, joints = memory_channels
        x, z = labels[3], labels[5]
        grid = {(u, v): joints[(u, v)] for u in (x, z) for v in (x, z)}
        tokens = ({str(g): c for g, c in singles.items()},
                  {(str(u), str(v)): c for (u, v), c in grid.items()})
        runs = [analyze_grid(singles, grid, m_samples=100, pair=("X@0", "Z@0")),
                analyze_grid(*tokens, m_samples=100, pair=(x, z)),
                analyze_grid(*tokens, m_samples=100, pair=("X@0", "Z@0"))]
        for analysis in runs:
            assert analysis.pair == ("X@0", "Z@0")
            np.testing.assert_array_equal(analysis.histogram.samples, runs[0].histogram.samples)

    def test_a_pair_outside_the_grid_names_the_cell_not_a_flag(self, memory_channels):
        labels, singles, joints = memory_channels
        grid = {(u, v): joints[(u, v)] for u in labels[3::2] for v in labels[3::2]}
        with pytest.raises(ValidationError, match="^pair H@0,X@0 is not in the channel grid$"):
            analyze_grid(singles, grid, m_samples=100, pair=(labels[0], labels[3]))


class TestConditionalGrid:
    def test_sorted_labels_and_one_map_per_cell(self, memory_channels):
        labels, singles, joints = memory_channels
        sub = {(u, v): joints[(u, v)] for u in labels[4::-2] for v in labels[:2]}
        u_labels, v_labels, maps = conditional_grid(singles, sub)
        assert u_labels == sorted(labels[4::-2], key=str)
        assert v_labels == sorted(labels[:2], key=str)
        assert set(maps) == set(sub)
        for (u, v), cm in maps.items():
            expected = conditional_map(joints[(u, v)], singles[u]).channel.superop
            np.testing.assert_array_equal(cm.channel.superop, expected)

    def test_lists_every_absent_channel(self, rng):
        from gatemem.exceptions import IncompleteDataError

        joints = {("A", "B"): random_channel(2, rng), ("C", "D"): random_channel(2, rng)}
        with pytest.raises(IncompleteDataError) as err:
            conditional_grid({"A": random_channel(2, rng)}, joints)
        assert err.value.missing == ["A,D", "C,B", "B", "C", "D"]

    def test_a_singular_first_gate_map_is_named_and_keeps_its_type(self, rng):
        rank_one = np.zeros((4, 4))
        rank_one[0, [0, 3]] = 1.0  # rho -> tr(rho)|0><0|
        marginals = {"A": random_channel(2, rng), "B": QuantumChannel(rank_one)}
        joints = {(u, "A"): random_channel(2, rng) for u in "AB"}
        with pytest.raises(SingularChannelError) as err:
            conditional_grid(marginals, joints)
        assert str(err.value).startswith("first gate B: superoperator is singular")
        assert err.value.sigma_min == 0.0
        assert err.value.sigma_max == pytest.approx(np.sqrt(2.0))


class TestMemoryScan:
    def test_default_depth(self):
        assert DEFAULT_SCAN_NMAX == 15

    def test_divisible_family_vanishes(self, rng):
        base = random_channel(2, rng)
        chans = [base]
        for _ in range(14):
            chans.append(compose(base, chans[-1]))
        scan = memory_scan(chans, metrics=("avg",), m_samples=200, rng=rng)
        assert len(scan.entries) == 105
        assert max(v["avg"] for v in scan.entries.values()) <= 1e-8

    def test_lag_injected_memory_peaks_at_lag(self, rng):
        # synthetic family: a kick channel enters every history at
        # length L, so cuts with m >= L or n - m < L break the pattern
        base = random_channel(2, rng, kraus_rank=1)
        kick = ideal_channel(GateLabel("T", (0,)))
        lag = 3
        chans = []
        power = QuantumChannel(np.eye(4))
        for n in range(1, 7):
            power = compose(base, power)
            chans.append(power if n < lag else compose(power, kick))
        scan = memory_scan(chans, metrics=("avg",), m_samples=2_000, rng=rng)
        clean = [scan.entries[(n, m)]["avg"] for n, m in scan.entries if m < lag and n - m >= lag]
        broken = [scan.entries[(n, m)]["avg"] for n, m in scan.entries if m >= lag]
        assert max(clean) <= 1e-8
        assert min(broken) > 1e-3

    def test_needs_at_least_two(self, rng):
        with pytest.raises(ValidationError):
            memory_scan([random_channel(2, rng)], metrics=("avg",), rng=rng)

    def test_an_error_names_its_cut(self, rng, monkeypatch):
        # cuts run (2, 1), (3, 1), (3, 2), so the second diamond cell is n=3,m=1
        chans = [random_channel(2, rng) for _ in range(3)]
        calls = []

        def failing(a, b, _fn=nonmarkov.diamond_distance):
            calls.append(a)
            if len(calls) == 2:
                raise SolverError("gap 0.5 above tolerance", 0.5)
            return _fn(a, b)

        monkeypatch.setattr(nonmarkov, "diamond_distance", failing)
        with pytest.raises(SolverError) as err:
            memory_scan(chans, metrics=("avg", "diamond"), m_samples=100, rng=rng)
        assert str(err.value) == "diamond cell n=3,m=1: gap 0.5 above tolerance"
        assert err.value.gap == 0.5
        assert calls[1] is chans[2]

    def test_diamond_cells_leave_the_averaged_stream_alone(self, rng):
        base = random_channel(2, rng)
        chans = [base, compose(random_channel(2, rng), base)]
        for _ in range(3):
            chans.append(compose(base, chans[-1]))
        avg = memory_scan(chans, metrics=("avg",), m_samples=200,
                          rng=np.random.default_rng(8))
        both = memory_scan(chans, metrics=("avg", "diamond"), m_samples=200,
                           rng=np.random.default_rng(8))
        assert all(both.entries[cut]["avg"] == avg.entries[cut]["avg"] for cut in avg.entries)
        assert max(entry["diamond"] for entry in both.entries.values()) > 1e-3


@pytest.fixture(scope="module")
def two_qubit_channels():
    labels = [GateLabel(n, (1,)) for n in ("H", "S", "T", "X", "Y", "Z")]
    labels.append(GateLabel("CX", (1, 0)))
    model = build_default_model(
        labels, coupling=0.4, reset_policy="persistent", sys_qubits=2
    )
    singles = {l: extract_channel(model, [l]) for l in labels}
    subset = [labels[0], labels[3], labels[6]]  # H, X, CX
    joints = {(u, v): extract_channel(model, [u, v]) for u in subset for v in subset}
    return subset, singles, joints


class TestFullGateSet:
    """The analyses must run over the complete universal set, with the
    two-qubit gate putting every map on the shared two-qubit space."""

    def test_conditional_maps_on_two_qubit_space(self, two_qubit_channels):
        subset, singles, joints = two_qubit_channels
        for (u, v), joint in joints.items():
            assert joint.dim == 4
            cm = conditional_map(joint, singles[u])
            assert cp_violation(cm) > 1e-4  # the memory is visible here too

    def test_matrix_over_mixed_gate_set(self, two_qubit_channels, rng):
        subset, singles, joints = two_qubit_channels
        matrix = conditional_vs_marginal_matrix(
            singles, joints, m_samples=1_000, rng=rng
        )
        assert matrix.values.shape == (3, 3)
        assert np.all(matrix.values >= 0)

    def test_two_qubit_target_scaling(self, two_qubit_channels):
        subset, singles, joints = two_qubit_channels
        cx = subset[2]
        one = {(subset[0], cx): joints[(subset[0], cx)]}
        plain, scaled = (
            analyze_grid(singles, one, metrics=("diamond",), m_samples=100,
                         scale_figure=flag).cond_vs_marginal["diamond"]
            for flag in (False, True)
        )
        # two-qubit target doubles the display value, dimension 4 divides it
        assert scaled.values[0, 0] == pytest.approx(plain.values[0, 0] / 2, rel=1e-6)
        assert set(scaled.scaling) == {"diamond/4", "x2-two-qubit-target"}

    def test_scaling_follows_each_column_target(self, two_qubit_channels):
        subset, singles, joints = two_qubit_channels
        h, cx = str(subset[0]), str(subset[2])
        plain, scaled = (
            analyze_grid(singles, joints, metrics=("diamond",), m_samples=100,
                         scale_figure=flag)
            for flag in (False, True)
        )
        # gate dependence: every column has the matrix's target gate
        for target, factor, tags in ((cx, 2 / 4, ("diamond/4", "x2-two-qubit-target")),
                                     (h, 1 / 4, ("diamond/4",))):
            before, after = (a.gate_dependence[(target, "diamond")] for a in (plain, scaled))
            assert before.scaling == ()
            assert after.scaling == tags
            np.testing.assert_array_equal(after.values, before.values * factor)
            assert before.values.max() > 0
        # conditioned vs marginal: each column has its own target gate
        before, after = (a.cond_vs_marginal["diamond"] for a in (plain, scaled))
        factors = [2 / 4 if label == cx else 1 / 4 for label in before.col_labels]
        assert after.scaling == ("diamond/4", "x2-two-qubit-target")
        np.testing.assert_array_equal(after.values, before.values * factors)


class TestJointDetectionConsistency:
    def test_all_three_witnesses_fire_together(self):
        # at the documented coupling, CP-violation, conditional-vs-
        # marginal distance, and gate dependence all clear their own
        # statistical floors on the same reconstructed data
        labels = [GateLabel(n, (0,)) for n in ("H", "X", "Z")]
        shots = 20_000
        from gatemem.pipeline import reconstruct_from_model

        def reconstruct_all(model, seed):
            singles = {
                l: reconstruct_from_model(model, [l], shots, seed + i).channel
                for i, l in enumerate(labels)
            }
            joints = {
                (u, v): reconstruct_from_model(model, [u, v], shots, seed + 17 * (3 * i + j)).channel
                for i, u in enumerate(labels)
                for j, v in enumerate(labels)
            }
            return singles, joints

        def witnesses(singles, joints, rng):
            cpvs, dists = [], []
            conditionals = {}
            for (u, v), joint in joints.items():
                cm = conditional_map(joint, singles[u])
                cpvs.append(cp_violation(cm))
                dists.append(avg_trace_distance(cm.channel, singles[v], 4_000, rng).mean)
                if v == labels[2]:
                    conditionals[str(u)] = cm
            matrix = gate_dependence_matrix(conditionals, m_samples=4_000, rng=rng)
            off = matrix.values[~np.eye(len(conditionals), dtype=bool)]
            return np.mean(cpvs), np.mean(dists), np.mean(off)

        persistent = build_default_model(labels, coupling=0.55, reset_policy="persistent")
        twin = build_default_model(labels, coupling=0.55, reset_policy="reset_each_gate")
        rng = np.random.default_rng(3)
        signal = witnesses(*reconstruct_all(persistent, 100), rng)
        floor = witnesses(*reconstruct_all(twin, 200), rng)
        for s, f in zip(signal, floor):
            assert s > 10 * f


class TestProcessTensorProxy:
    def test_identical_states_vanish(self, rng):
        chan_u, chan_v = random_channel(2, rng), random_channel(2, rng)
        ref = markovian_choi_reference(chan_u, chan_v)
        assert process_tensor_proxy(ref, ref) <= 1e-9

    def test_identical_arguments(self):
        rho = random_density(2, np.random.default_rng(0))
        assert process_tensor_proxy(rho, rho) == pytest.approx(0.0, abs=1e-10)

    def test_pure_vs_maximally_mixed_is_one(self):
        assert process_tensor_proxy(
            DensityMatrix(np.diag([1.0, 0.0])), np.eye(2) / 2
        ) == pytest.approx(1.0, abs=1e-12)

    def test_matches_spectral_oracle_on_random_pairs(self, rng):
        # independent oracle: build the matrix logarithms explicitly; the
        # 1e-12 regularization of a full-rank reference stays below 1e-10
        def log2m(mat):
            w, v = np.linalg.eigh(mat)
            return (v * np.log2(w)) @ v.conj().T

        for _ in range(20):
            rho, sigma = random_density(2, rng), random_density(2, rng)
            oracle = np.trace(rho @ (log2m(rho) - log2m(sigma))).real
            assert process_tensor_proxy(rho, sigma) == pytest.approx(oracle, abs=1e-10)

    def test_nonnegative_zero_iff_equal(self, rng):
        for _ in range(20):
            rho, sigma = random_density(3, rng), random_density(3, rng)
            value = process_tensor_proxy(rho, sigma)
            assert value >= 0.0
            if value < 1e-9:
                assert _half_trace_norm(rho - sigma) < 1e-4

    def test_statistical_floor_needs_samples(self):
        with pytest.raises(ValidationError):
            statistical_floor([0.1])

    def test_statistical_floor_value(self):
        values = [0.1, 0.2, 0.3]
        assert statistical_floor(values) == pytest.approx(0.2 + 3 * np.std(values, ddof=1))
