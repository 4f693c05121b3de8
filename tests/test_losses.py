"""Losses and metrics: trivial values, oracles, symmetry, gradients."""

import numpy as np
import pytest

from pointfill import autodiff as ad
from pointfill import gradcheck, losses
from pointfill.errors import ContractError
from pointfill.geometry import farthest_point_sample

from .oracles import chamfer_oracle, directed_nn_mean, fscore_oracle, mmd_oracle


def random_cloud(rng, n, spread=1.0):
    return spread * rng.standard_normal((n, 3))


# --- chamfer -----------------------------------------------------------------


def test_chamfer_identical_clouds_is_zero():
    rng = np.random.default_rng(0)
    pts = random_cloud(rng, 20)
    assert losses.chamfer(pts, pts.copy(), "l1").item() == 0.0
    assert losses.chamfer(pts, pts.copy(), "l2").item() == 0.0


def test_chamfer_single_pair():
    a = np.array([[0.0, 0, 0]])
    b = np.array([[1.0, 0, 0]])
    assert losses.chamfer(a, b, "l1").item() == pytest.approx(1.0)
    assert losses.chamfer(a, b, "l2").item() == pytest.approx(1.0)


@pytest.mark.parametrize("norm", ["l1", "l2"])
def test_chamfer_matches_bruteforce(norm):
    rng = np.random.default_rng(1)
    a = random_cloud(rng, 64)
    b = random_cloud(rng, 64)
    got = losses.chamfer(a, b, norm).item()
    assert got == pytest.approx(chamfer_oracle(a, b, norm), abs=1e-6)


def test_chamfer_symmetric_exactly():
    rng = np.random.default_rng(2)
    a = random_cloud(rng, 17)
    b = random_cloud(rng, 23)
    assert losses.chamfer(a, b, "l1").item() == losses.chamfer(b, a, "l1").item()


def test_chamfer_rejects_bad_norm():
    pts = np.zeros((2, 3))
    with pytest.raises(ContractError):
        losses.chamfer(pts, pts, "linf")


def test_chamfer_nonnegative_and_zero_iff_mutual_subsets():
    rng = np.random.default_rng(17)
    pts = random_cloud(rng, 12)
    # same locations, different multiplicity and order: still zero
    a = np.concatenate([pts, pts[:4]])
    b = pts[::-1]
    assert losses.chamfer(a, b, "l1").item() == 0.0
    # any uncovered point makes it strictly positive
    b_extra = np.concatenate([b, [[50.0, 0, 0]]])
    assert losses.chamfer(a, b_extra, "l1").item() > 0.0
    for _ in range(5):
        x = random_cloud(rng, 10)
        y = random_cloud(rng, 8)
        assert losses.chamfer(x, y, "l2").item() > 0.0


def test_chamfer_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    a = ad.Tensor(random_cloud(rng, 9), requires_grad=True)
    b = ad.Tensor(random_cloud(rng, 7), requires_grad=True)
    for norm in ("l1", "l2"):
        report = gradcheck.grad_check(lambda a, b: losses.chamfer(a, b, norm), [a, b])
        assert report.passed, report.summary()


def test_chamfer_gradient_check_holds_at_a_nearest_point_tie():
    # the query sits halfway between two reference points, so a perturbation
    # of either flips its nearest point; grad_check replays the taped choice
    a = ad.Tensor(np.zeros((1, 3)), requires_grad=True)
    b = ad.Tensor(np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]), requires_grad=True)
    report = gradcheck.grad_check(lambda a, b: losses.chamfer(a, b, "l1"), [a, b])
    assert report.passed, report.summary()


# --- partial matching / fidelity ----------------------------------------------


def test_partial_matching_subset_is_zero():
    rng = np.random.default_rng(4)
    pred = random_cloud(rng, 30)
    assert losses.partial_matching_loss(pred[:10], pred).item() == 0.0


def test_partial_matching_single_point():
    src = np.array([[0.0, 0, 0]])
    dst = np.array([[0.0, 0, 3.0], [0.0, 4.0, 0]])
    assert losses.partial_matching_loss(src, dst).item() == pytest.approx(3.0)


def test_partial_matching_matches_directed_oracle():
    rng = np.random.default_rng(5)
    a = random_cloud(rng, 40)
    b = random_cloud(rng, 50)
    got = losses.partial_matching_loss(a, b).item()
    assert got == pytest.approx(directed_nn_mean(a, b), abs=1e-6)


def test_partial_matching_bounded_by_twice_chamfer():
    rng = np.random.default_rng(6)
    for _ in range(10):
        a = random_cloud(rng, int(rng.integers(5, 30)))
        b = random_cloud(rng, int(rng.integers(5, 30)))
        pm = losses.partial_matching_loss(a, b).item()
        cd = losses.chamfer(a, b, "l1").item()
        assert pm <= 2.0 * cd + 1e-12


def test_fidelity_equals_partial_matching():
    rng = np.random.default_rng(7)
    a = random_cloud(rng, 12)
    b = random_cloud(rng, 18)
    assert losses.fidelity(a, b) == losses.partial_matching_loss(a, b).item()


# --- completion loss ------------------------------------------------------------


def test_completion_loss_zero_when_outputs_equal_downsampled_gt():
    rng = np.random.default_rng(8)
    gt = random_cloud(rng, 64)
    seed_cloud = gt[farthest_point_sample(gt, 16, start=0)]
    stage = gt[farthest_point_sample(gt, 32, start=0)]
    targets = losses.downsample_targets(gt, [16, 32, 64])
    total, terms = losses.completion_loss(seed_cloud, [stage, gt.copy()], targets)
    assert total.item() == pytest.approx(0.0, abs=1e-12)
    assert len(terms) == 3


def test_completion_loss_needs_one_target_per_output():
    cloud = np.zeros((4, 3))
    for targets in ([cloud], [cloud] * 3):
        with pytest.raises(ContractError, match="2 outputs"):
            losses.completion_loss(cloud, [cloud], targets)


def test_completion_loss_single_point_shift():
    gt = np.array([[0.0, 0, 0]])
    stage = np.array([[1.0, 0, 0]])
    total, _ = losses.completion_loss(stage, [], losses.downsample_targets(gt, [1]))
    assert total.item() == pytest.approx(1.0)


def test_completion_loss_composes_individual_chamfers():
    rng = np.random.default_rng(9)
    gt = random_cloud(rng, 48)
    seed_cloud = random_cloud(rng, 12)
    stages = [random_cloud(rng, 24), random_cloud(rng, 48)]
    targets = losses.downsample_targets(gt, [12, 24, 48])
    total, terms = losses.completion_loss(seed_cloud, stages, targets)
    expect = 0.0
    for cloud in [seed_cloud, *stages]:
        target = gt
        if gt.shape[0] > cloud.shape[0]:
            target = gt[farthest_point_sample(gt, cloud.shape[0], start=0)]
        expect += losses.chamfer(cloud, target, "l1").item()
    assert total.item() == pytest.approx(expect, abs=1e-9)
    assert total.item() == pytest.approx(sum(t.item() for t in terms), abs=1e-9)


def test_loss_breakdown_total_identity():
    b = losses.LossBreakdown(stage_cds=(0.5, 0.25), partial_matching=0.125, total=0.875)
    assert abs(b.total - (sum(b.stage_cds) + b.partial_matching)) < 1e-6
    assert b.labels() == ["cd_seeds", "cd_stage1"]


# --- fscore ---------------------------------------------------------------------


def test_fscore_identical_is_one():
    rng = np.random.default_rng(10)
    pts = random_cloud(rng, 25)
    assert losses.fscore(pts, pts.copy()) == 1.0


def test_fscore_far_apart_is_zero():
    rng = np.random.default_rng(11)
    gt = random_cloud(rng, 25)
    diag = np.linalg.norm(gt.max(axis=0) - gt.min(axis=0))
    pred = gt + np.array([100.0 * diag, 0.0, 0.0])
    assert losses.fscore(pred, gt) == 0.0


def test_fscore_half_precision_full_recall():
    # gt covered entirely; half of pred is far away: P=0.5, R=1.0, F=2/3
    gt = np.array([[float(i), 0.0, 0.0] for i in range(8)])
    far = np.array([[float(i), 100.0, 0.0] for i in range(8)])
    pred = np.concatenate([gt, far])
    got = losses.fscore(pred, gt, threshold=0.5)
    assert got == pytest.approx(2.0 / 3.0)
    assert got == pytest.approx(fscore_oracle(pred, gt, 0.5))


def test_fscore_of_integer_clouds_uses_true_distances():
    # the points lie sqrt(2) apart: an integer distance of 1 would count a match
    pred, gt = [[0, 0, 0]], [[1, 1, 0]]
    assert losses.fscore(pred, gt, threshold=1.2) == 0.0
    assert losses.fscore(pred, gt, threshold=1.5) == 1.0


def test_fscore_rejects_nonpositive_threshold():
    pts = np.zeros((2, 3))
    with pytest.raises(ContractError):
        losses.fscore(pts, pts, threshold=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fscore_refuses_a_non_finite_threshold(bad):
    # NaN used to give 0.0 and inf 1.0
    pts = np.zeros((2, 3))
    with pytest.raises(ContractError, match=str(bad)):
        losses.fscore(pts, pts + 1.0, threshold=bad)


# --- mmd ------------------------------------------------------------------------


def test_mmd_member_of_library_is_zero():
    rng = np.random.default_rng(12)
    library = [random_cloud(rng, 16) for _ in range(4)]
    value, idx = losses.mmd(library[2].copy(), library)
    assert value == pytest.approx(0.0, abs=1e-12)
    assert idx == 2


def test_mmd_single_entry_library():
    rng = np.random.default_rng(13)
    pred = random_cloud(rng, 10)
    ref = random_cloud(rng, 12)
    value, idx = losses.mmd(pred, [ref])
    assert idx == 0
    assert value == pytest.approx(losses.chamfer(pred, ref, "l2").item())


def test_mmd_matches_exhaustive_scan():
    rng = np.random.default_rng(14)
    pred = random_cloud(rng, 14)
    library = [random_cloud(rng, 14) for _ in range(5)]
    got_value, got_idx = losses.mmd(pred, library)
    want_value, want_idx = mmd_oracle(pred, library)
    assert got_idx == want_idx
    assert got_value == pytest.approx(want_value, abs=1e-9)


def test_mmd_rejects_empty_library():
    with pytest.raises(ContractError):
        losses.mmd(np.zeros((2, 3)), [])
