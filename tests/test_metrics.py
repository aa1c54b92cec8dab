import numpy as np
import pytest

import microvolumetry as mv
from microvolumetry.errors import ShapeError, ValidationError
from microvolumetry.metrics import REPORT_HEADER


class TestConfusion:
    def test_perfect_prediction_is_diagonal(self):
        mask = np.random.default_rng(0).integers(0, 3, (16, 16)).astype(np.uint8)
        counts = mv.confusion(mask, mask)
        assert counts.shape == (3, 3)
        assert counts.sum() == 256
        assert np.array_equal(counts, np.diag(np.diag(counts)))

    def test_single_cell_layout_is_row_true_col_pred(self):
        truth = np.zeros((4, 4), dtype=np.uint8)
        pred = np.ones((4, 4), dtype=np.uint8)
        counts = mv.confusion(pred, truth)
        expected = np.zeros((3, 3), dtype=np.int64)
        expected[0, 1] = 16
        assert np.array_equal(counts, expected)

    def test_hand_counted_mixture(self):
        truth = np.array([[0, 0, 1], [1, 2, 2]], dtype=np.uint8)
        pred = np.array([[0, 1, 1], [2, 2, 2]], dtype=np.uint8)
        counts = mv.confusion(pred, truth)
        assert np.array_equal(counts, [[1, 1, 0], [0, 1, 1], [0, 0, 2]])

    def test_accepts_stacks_and_conserves_pixels(self):
        rng = np.random.default_rng(1)
        truth = rng.integers(0, 3, (5, 8, 8)).astype(np.uint8)
        pred = rng.integers(0, 3, (5, 8, 8)).astype(np.uint8)
        counts = mv.confusion(pred, truth)
        assert counts.sum() == 5 * 64
        assert np.array_equal(counts.sum(axis=1), np.bincount(truth.ravel(), minlength=3))
        assert np.array_equal(counts.sum(axis=0), np.bincount(pred.ravel(), minlength=3))

    def test_rejects_mismatch_and_foreign_labels(self):
        ok = np.zeros((2, 2), dtype=np.uint8)
        with pytest.raises(ShapeError):
            mv.confusion(ok, np.zeros((2, 3), dtype=np.uint8))
        with pytest.raises(ValidationError):
            mv.confusion(np.array([[0, 3]], dtype=np.uint8), np.zeros((1, 2), dtype=np.uint8))

    # 0.5 was truncated to background and counted; -1 raised numpy's bare ValueError from bincount
    @pytest.mark.parametrize("pred, truth", [
        ([[0.5, 1]], [[0, 1]]), ([[-1, 1]], [[0, 1]]), ([[0, 1]], [[0, -1]]),
    ], ids=["fraction", "negative-pred", "negative-truth"])
    def test_a_label_outside_0_1_2_is_a_validation_error(self, pred, truth):
        with pytest.raises(ValidationError):
            mv.confusion(np.array(pred), np.array(truth))


class TestAccuracyAndDice:
    def test_accuracy_values(self):
        counts = np.diag([10, 20, 30])
        assert mv.pixel_accuracy(counts) == 1.0
        counts = np.array([[49, 1, 0], [0, 30, 0], [0, 1, 19]])
        assert mv.pixel_accuracy(counts) == pytest.approx(0.98)

    def test_accuracy_rejects_empty(self):
        with pytest.raises(ValidationError):
            mv.pixel_accuracy(np.zeros((3, 3), dtype=np.int64))

    def test_accuracy_is_prevalence_weighted_recall(self):
        rng = np.random.default_rng(2)
        counts = rng.integers(1, 50, (3, 3))
        recalls = np.diag(counts) / counts.sum(axis=1)
        weights = counts.sum(axis=1) / counts.sum()
        assert mv.pixel_accuracy(counts) == pytest.approx((recalls * weights).sum(), rel=1e-12)

    def test_dice_extremes(self):
        identical = np.diag([5, 7, 9])
        for k in range(3):
            assert mv.dice(identical, k) == 1.0
        disjoint = np.array([[0, 8, 0], [8, 0, 0], [0, 0, 4]])
        assert mv.dice(disjoint, 0) == 0.0
        assert mv.dice(disjoint, 1) == 0.0

    def test_dice_half_overlap(self):
        # TP=4, FP=2, FN=2: 2*4 / (8+2+2) = 2/3
        counts = np.array([[10, 2, 0], [2, 4, 0], [0, 0, 0]])
        assert mv.dice(counts, 1) == pytest.approx(8 / 12)

    def test_dice_absent_class_scores_one(self):
        counts = np.array([[16, 0, 0], [0, 4, 0], [0, 0, 0]])
        assert mv.dice(counts, 2) == 1.0

    def test_dice_formula_on_random_counts(self):
        rng = np.random.default_rng(3)
        counts = rng.integers(0, 40, (3, 3))
        for k in range(3):
            tp = counts[k, k]
            fp = counts[:, k].sum() - tp
            fn = counts[k, :].sum() - tp
            assert mv.dice(counts, k) == pytest.approx(2 * tp / (2 * tp + fp + fn))

    def test_dice_rejects_bad_class(self):
        with pytest.raises(ValidationError):
            mv.dice(np.diag([1, 1, 1]), 3)


class TestCountClassPixels:
    def test_counts_bone_across_stack(self):
        masks = np.zeros((2, 512, 512), dtype=np.uint8)
        masks[0] = 1
        assert mv.count_class_pixels(masks, 1) == 262144
        assert mv.count_class_pixels(masks, 2) == 0

    def test_accepts_single_slice(self):
        mask = np.array([[0, 1], [1, 2]], dtype=np.uint8)
        assert mv.count_class_pixels(mask, 1) == 2


class TestCalibration:
    def test_reference_scan_numbers(self):
        report = mv.calibrate_volume(4154096, 23546219, 365.03)
        assert report.v_c == pytest.approx(64.40, abs=0.01)
        assert report.ratio == pytest.approx(0.1764, abs=0.0001)

    def test_identity_when_counts_match(self):
        report = mv.calibrate_volume(1000, 1000, 42.0)
        assert report.v_c == pytest.approx(42.0, rel=1e-12)
        assert report.ratio == 1.0

    def test_linearity_in_pixel_count(self):
        base = mv.calibrate_volume(500, 2000, 80.0)
        doubled = mv.calibrate_volume(1000, 2000, 80.0)
        assert doubled.v_c == pytest.approx(2 * base.v_c, rel=1e-12)

    def test_cross_product_invariant(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            pc = int(rng.integers(0, 10**7))
            pm = int(rng.integers(1, 10**8))
            vm = float(rng.uniform(1.0, 1000.0))
            report = mv.calibrate_volume(pc, pm, vm)
            assert report.v_c * pm == pytest.approx(vm * pc, rel=1e-9)

    def test_zero_pixels_gives_zero_volume(self):
        report = mv.calibrate_volume(0, 100, 50.0)
        assert report.v_c == 0.0 and report.ratio == 0.0

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValidationError):
            mv.calibrate_volume(-1, 100, 50.0)
        with pytest.raises(ValidationError):
            mv.calibrate_volume(10, 0, 50.0)
        with pytest.raises(ValidationError):
            mv.calibrate_volume(10, 100, 0.0)

    def test_rejects_infinite_reference_volume(self, tmp_path):
        with pytest.raises(ValidationError, match="finite"):
            mv.calibrate_volume(10, 100, float("inf"))
        path = tmp_path / "ref.txt"
        path.write_text("pixels_M=100\nV_M_mm3=inf\n")
        with pytest.raises(ValidationError, match="finite"):
            mv.read_reference(path)


class TestReportFile:
    def test_layout_and_values(self, tmp_path):
        report = mv.calibrate_volume(4154096, 23546219, 365.03)
        truth = np.zeros((4, 4), dtype=np.uint8)
        counts = mv.confusion(truth, truth)
        path = tmp_path / "vol.csv"
        mv.write_report(report, counts, path)
        lines = path.read_text().splitlines()
        assert lines[0] == REPORT_HEADER
        cells = lines[1].split(",")
        assert cells[0] == "4154096" and cells[1] == "23546219"
        # exact: 4154096 * 365.03 / 23546219 = 64.3997094769...
        assert cells[3] == "64.399709"
        assert float(cells[4]) == pytest.approx(0.1764, abs=0.0001)
        assert cells[5] == "1.000000" and cells[6:] == ["1.000000"] * 3

    def test_rewrites_are_byte_identical(self, tmp_path):
        report = mv.calibrate_volume(123, 456, 7.8)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        mv.write_report(report, None, a)
        mv.write_report(report, None, b)
        assert a.read_bytes() == b.read_bytes()

    def test_missing_truth_leaves_quality_cells_blank(self, tmp_path):
        report = mv.calibrate_volume(10, 20, 5.0)
        path = tmp_path / "vol.csv"
        mv.write_report(report, None, path)
        row = path.read_text().splitlines()[1]
        assert row.endswith(",,,,")
        assert row.split(",")[5:] == [""] * 4

    def test_empty_confusion_fails_before_touching_disk(self, tmp_path):
        report = mv.calibrate_volume(10, 20, 5.0)
        path = tmp_path / "vol.csv"
        with pytest.raises(ValidationError):
            mv.write_report(report, np.zeros((3, 3), dtype=np.int64), path)
        assert not path.exists()


class TestReferenceFile:
    def test_parses_counts_and_volume(self, tmp_path):
        path = tmp_path / "ref.txt"
        path.write_text("# reference scan\npixels_M=23546219\nV_M_mm3=365.03\n")
        pixels, volume = mv.read_reference(path)
        assert pixels == 23546219 and volume == 365.03

    def test_tolerates_spacing_and_order(self, tmp_path):
        path = tmp_path / "ref.txt"
        path.write_text("V_M_mm3 = 12.5\n\npixels_M = 400\n")
        assert mv.read_reference(path) == (400, 12.5)

    def test_inline_comments_parse_and_a_bad_value_names_its_line(self, tmp_path):
        path = tmp_path / "ref.txt"
        path.write_text("pixels_M = 400  # bone pixels\nV_M_mm3 = 12.5 # mm^3\n")
        assert mv.read_reference(path) == (400, 12.5)
        path.write_text("# export\npixels_M = 400\n\nV_M_mm3 = -1\n")
        with pytest.raises(ValidationError, match=r"ref\.txt:4: .*V_M_mm3"):
            mv.read_reference(path)
        path.write_text("pixels_M = 4x0\nV_M_mm3 = 12.5\n")
        with pytest.raises(ValidationError, match=r"ref\.txt:1: .*pixels_M"):
            mv.read_reference(path)

    def test_line_without_equals_is_refused(self, tmp_path):
        path = tmp_path / "ref.txt"
        path.write_text("pixels_M=400\nV_M_mm3 12.5\nV_M_mm3=12.5\n")
        with pytest.raises(ValidationError, match=r"ref\.txt:2: expected 'key = value'"):
            mv.read_reference(path)

    def test_errors_name_the_missing_line(self, tmp_path):
        path = tmp_path / "ref.txt"
        path.write_text("V_M_mm3=1.0\n")
        with pytest.raises(ValidationError, match="pixels_M"):
            mv.read_reference(path)
        path.write_text("pixels_M=10\n")
        with pytest.raises(ValidationError, match="V_M_mm3"):
            mv.read_reference(path)

    def test_rejects_non_numeric_and_non_positive(self, tmp_path):
        path = tmp_path / "ref.txt"
        path.write_text("pixels_M=many\nV_M_mm3=365.03\n")
        with pytest.raises(ValidationError):
            mv.read_reference(path)
        path.write_text("pixels_M=0\nV_M_mm3=365.03\n")
        with pytest.raises(ValidationError):
            mv.read_reference(path)
