"""Data pipeline: parsing, windowing, preprocessing, augmentation and batch
packing."""

import numpy as np
import pytest

from startraj import (
    TrajectoryScene, augment_rotation, load_dataset, make_scenes, merge_scenes,
    pack_batches, preprocess,
)
from startraj.data import scene_window
from startraj.errors import DataFormatError
from startraj.synthetic import simulate_scene


def _write(tmp_path, text, name="traj.txt"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _scene(n=3, total=20, obs=8, seed=0):
    return simulate_scene(np.random.default_rng(seed), n_peds=n,
                          total_len=total, obs_len=obs)


class _FixedAngle:
    """A generator stand-in whose uniform draw is always `angle`."""

    def __init__(self, angle):
        self.angle = angle

    def uniform(self, low, high):
        return self.angle


class TestLoadDataset:
    def test_empty_file(self, tmp_path):
        # [TRIVIAL]
        raw = load_dataset(_write(tmp_path, ""))
        assert raw.tracklets == []

    def test_single_pedestrian_20_frames(self, tmp_path):
        # [TRIVIAL] one tracklet of length 20
        lines = "\n".join(f"{10 * t} 1 {t * 0.5} {t * 0.25}" for t in range(20))
        raw = load_dataset(_write(tmp_path, lines))
        assert len(raw.tracklets) == 1
        tk = raw.tracklets[0]
        assert tk.frames.shape == (20,)
        assert raw.frame_step == 10
        np.testing.assert_allclose(tk.xy[:, 0], 0.5 * np.arange(20))

    def test_gap_splits_tracklets(self, tmp_path):
        # [TRIVIAL] a gap produces two tracklets
        frames = [0, 10, 20, 50, 60]
        lines = "\n".join(f"{f} 7 {i}.0 0.0" for i, f in enumerate(frames))
        raw = load_dataset(_write(tmp_path, lines))
        lengths = sorted(len(t.frames) for t in raw.tracklets)
        assert lengths == [2, 3]
        assert all(t.ped_id == "7" for t in raw.tracklets)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        raw = load_dataset(_write(tmp_path, "# header\n\n0 1 0.0 0.0\n10 1 1.0 0.0\n"))
        assert len(raw.tracklets) == 1

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = _write(tmp_path, "0 1 0.0 0.0\n10 1 oops 0.0\n")
        with pytest.raises(DataFormatError, match=":2"):
            load_dataset(path)
        path = _write(tmp_path, "0 1 0.0\n", name="short.txt")
        with pytest.raises(DataFormatError, match=":1"):
            load_dataset(path)

    def test_non_monotone_frames_rejected(self, tmp_path):
        path = _write(tmp_path, "10 1 0.0 0.0\n0 1 1.0 0.0\n")
        with pytest.raises(DataFormatError, match="monotone"):
            load_dataset(path)

    def test_non_finite_coordinate_rejected(self, tmp_path):
        path = _write(tmp_path, "0 1 nan 0.0\n")
        with pytest.raises(DataFormatError):
            load_dataset(path)

    @pytest.mark.parametrize("frame", ["1e300", "-1e300", "9007199254740994"])
    def test_frame_out_of_range_rejected(self, tmp_path, frame):
        # past 2**53 a float frame id is not exact, and 1e300 overflows int64
        path = _write(tmp_path, f"0 1 0.0 0.0\n{frame} 2 1.0 0.0\n")
        with pytest.raises(DataFormatError, match=":2: frame .* out of range"):
            load_dataset(path)

    def test_fractional_frame_rejected(self, tmp_path):
        # 0.4 1.4 2.9 would truncate to the frames 0, 1 and 2
        path = _write(tmp_path, "0.4 1 0.0 0.0\n1.4 1 1.0 0.0\n2.9 1 2.0 0.0\n")
        with pytest.raises(DataFormatError, match=r":1: frame 0.4 is not an integer"):
            load_dataset(path)

    def test_integral_float_frame_loads(self, tmp_path):
        raw = load_dataset(_write(tmp_path, "780.0 1 0.0 0.0\n790 1 1.0 0.0\n8.0e2 1 2.0 0.0\n"))
        [tracklet] = raw.tracklets
        assert tracklet.frames.tolist() == [780, 790, 800]


class TestMakeScenes:
    def test_exact_window(self, tmp_path):
        # [TRIVIAL] 20 frames, stride 20 -> exactly one scene
        lines = "\n".join(f"{10 * t} 1 {t}.0 0.0" for t in range(20))
        raw = load_dataset(_write(tmp_path, lines))
        scenes = make_scenes(raw, stride=20)
        assert len(scenes) == 1
        assert scenes[0].positions.shape == (1, 20, 2)
        assert scenes[0].targets.all()

    def test_21_frames_stride_1(self, tmp_path):
        # [TRIVIAL] two overlapping windows
        lines = "\n".join(f"{10 * t} 1 {t}.0 0.0" for t in range(21))
        raw = load_dataset(_write(tmp_path, lines))
        assert len(make_scenes(raw, stride=1)) == 2

    def test_brute_force_window_enumerator(self, tmp_path):
        # [DERIVED] multi-pedestrian file vs a brute-force window scan
        rng = np.random.default_rng(0)
        rows = []
        spans = {"a": (0, 25), "b": (5, 23), "c": (18, 40)}
        for ped, (lo, hi) in spans.items():
            for t in range(lo, hi):
                rows.append(f"{10 * t} {ped} {rng.uniform(-5, 5):.3f} {rng.uniform(-5, 5):.3f}")
        raw = load_dataset(_write(tmp_path, "\n".join(rows)))
        scenes = make_scenes(raw, stride=1)

        # oracle: for each window start, which peds are full / partial?
        lo_all = 0
        hi_all = 39
        expected = []
        for start in range(lo_all, hi_all - 19 + 1):
            window = set(range(start, start + 20))
            full = [p for p, (lo, hi) in spans.items()
                    if window <= set(range(lo, hi))]
            partial = [p for p, (lo, hi) in spans.items()
                       if window & set(range(lo, hi))]
            if full:
                expected.append((start, sorted(partial)))
        assert len(scenes) == len(expected)
        for scene, (start, members) in zip(scenes, expected):
            assert sorted(scene.ped_ids) == members

    @pytest.mark.parametrize("seed", range(20))
    def test_random_recordings_match_window_scan(self, tmp_path, seed):
        # [DERIVED] scenes at every stride-th frame from the first, kept when
        # some pedestrian spans the window: the scan over all those starts
        rng = np.random.default_rng(seed)
        rows = []
        for ped in range(rng.integers(1, 5)):
            frames = np.unique(rng.integers(0, 40, rng.integers(1, 40)))
            rows += [f"{10 * f} p{ped} {rng.uniform(-5, 5):.3f} 0.0" for f in frames]
        raw = load_dataset(_write(tmp_path, "\n".join(rows)))
        obs, pred, stride = 3, int(rng.integers(1, 4)), int(rng.integers(1, 4))
        step = raw.frame_step
        lo = min(t.frames[0] for t in raw.tracklets)
        hi = max(t.frames[-1] for t in raw.tracklets)
        want = [scene for start in range(lo, hi + 1, stride * step)
                if (scene := scene_window(raw, start, obs, pred)).targets.any()]
        got = make_scenes(raw, obs=obs, pred=pred, stride=stride)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.ped_ids == b.ped_ids
            np.testing.assert_array_equal(a.positions, b.positions)
            np.testing.assert_array_equal(a.presence, b.presence)

    def test_far_apart_frames_are_not_scanned(self, tmp_path):
        # a frame id 10**12 steps past the others leaves a one-frame tracklet;
        # the windows are those of the recording without it
        rows = [f"{10 * t} a {t}.0 0.0" for t in range(21)]
        raw = load_dataset(_write(tmp_path, "\n".join(rows)))
        far = load_dataset(_write(tmp_path, "\n".join(rows + ["10000000000000 b 0.0 0.0"]),
                                  name="far.txt"))
        assert [s.ped_ids for s in make_scenes(far)] == [["a"], ["a"]]
        for a, b in zip(make_scenes(far), make_scenes(raw), strict=True):
            np.testing.assert_array_equal(a.positions, b.positions)

    def test_partial_pedestrians_masked_not_targets(self, tmp_path):
        rows = [f"{10 * t} a {t}.0 0.0" for t in range(20)]
        rows += [f"{10 * t} b 0.0 {t}.0" for t in range(5, 12)]
        raw = load_dataset(_write(tmp_path, "\n".join(rows)))
        scenes = make_scenes(raw, stride=20)
        scene = scenes[0]
        ia, ib = scene.ped_ids.index("a"), scene.ped_ids.index("b")
        assert scene.targets[ia] and not scene.targets[ib]
        assert scene.presence[ib].sum() == 7

    def test_gap_pieces_named_by_first_frame(self, tmp_path):
        # pedestrian 7 skips frames 30 and 40, so the window holds two pieces
        # of its track; pedestrian 8, in one piece, keeps its plain id
        frames = [0, 10, 20, 50, 60]
        lines = [f"{f} 7 {i}.0 0.0" for i, f in enumerate(frames)]
        lines += [f"{10 * t} 8 0.0 {t}.0" for t in range(7)]
        scene = scene_window(load_dataset(_write(tmp_path, "\n".join(lines))), 0, 3, 4)
        assert scene.ped_ids == ["7@0", "7@50", "8"]
        np.testing.assert_array_equal(scene.presence[:2], [[1, 1, 1, 0, 0, 0, 0],
                                                           [0, 0, 0, 0, 0, 1, 1]])
        np.testing.assert_array_equal(scene.positions[1, 5:, 0], [3.0, 4.0])

    def test_bad_stride(self, tmp_path):
        raw = load_dataset(_write(tmp_path, "0 1 0.0 0.0\n"))
        with pytest.raises(DataFormatError):
            make_scenes(raw, stride=0)


class TestPreprocess:
    def test_origin_at_last_observation(self):
        # [TRIVIAL] frame obs_len-1 maps to (0, 0)
        scene = preprocess(_scene(n=1))
        np.testing.assert_allclose(scene.positions[0, scene.obs_len - 1], [0.0, 0.0],
                                   atol=1e-12)

    def test_translation_invariance(self):
        # [TRIVIAL] translating the whole scene changes nothing after shift
        base = _scene(n=2, seed=1)
        moved = TrajectoryScene(
            ped_ids=list(base.ped_ids), positions=base.positions + np.array([13.0, -4.0]),
            presence=base.presence.copy(), obs_len=base.obs_len,
        )
        a, b = preprocess(base), preprocess(moved)
        np.testing.assert_allclose(a.positions, b.positions, atol=1e-12)

    def test_world_round_trip(self):
        # [TRIVIAL] inverse transform recovers world coordinates within 1e-12
        scene = _scene(n=3, seed=2)
        prep = preprocess(scene)
        np.testing.assert_allclose(prep.world_positions(), scene.positions, atol=1e-12)

    def test_idempotent(self):
        prep = preprocess(_scene(seed=3))
        assert preprocess(prep) is prep


class TestAugmentRotation:
    def test_identity_angle(self):
        # [TRIVIAL] theta = 0
        scene = _scene(seed=4)
        out = augment_rotation(scene, _FixedAngle(0.0))
        np.testing.assert_array_equal(out.positions, scene.positions)

    def test_pi_negates(self):
        # [TRIVIAL] theta = pi negates coordinates
        scene = _scene(seed=5)
        out = augment_rotation(scene, _FixedAngle(np.pi))
        np.testing.assert_allclose(out.positions, -scene.positions, atol=1e-12)

    def test_pairwise_distances_preserved(self):
        # [TRIVIAL] isometry -> graph invariance
        scene = _scene(n=4, seed=6)
        out = augment_rotation(scene, np.random.default_rng(7))
        for t in range(scene.total_len):
            d0 = np.linalg.norm(
                scene.positions[:, t, None, :] - scene.positions[None, :, t, :], axis=-1
            )
            d1 = np.linalg.norm(
                out.positions[:, t, None, :] - out.positions[None, :, t, :], axis=-1
            )
            np.testing.assert_allclose(d0, d1, atol=1e-12)


class TestPacking:
    def test_greedy_budget(self):
        # [TRIVIAL] 100+100+100 under budget 256 -> {100,100} and {100}
        sizes = [100, 100, 100]
        fakes = []
        for size, seed in zip(sizes, range(3)):
            base = _scene(n=2, seed=seed)
            reps = size // 2
            fakes.append(TrajectoryScene(
                ped_ids=[f"s{seed}p{i}" for i in range(size)],
                positions=np.tile(base.positions, (reps, 1, 1)),
                presence=np.tile(base.presence, (reps, 1)),
                obs_len=base.obs_len,
            ))
        batches = pack_batches(fakes, budget=256, max_scenes=16)
        assert [b.scene.n_peds for b in batches] == [200, 100]
        assert [len(b.sizes) for b in batches] == [2, 1]

    def test_oversized_scene_flagged(self):
        base = _scene(n=2, seed=9)
        big = TrajectoryScene(
            ped_ids=[f"p{i}" for i in range(300)],
            positions=np.tile(base.positions, (150, 1, 1)),
            presence=np.tile(base.presence, (150, 1)),
            obs_len=base.obs_len,
        )
        # a scene over budget is emitted alone
        batches = pack_batches([big], budget=256, max_scenes=16)
        assert len(batches) == 1 and batches[0].scene.n_peds == 300
        assert len(batches[0].sizes) == 1

    def test_oversized_scene_after_pending_scenes(self):
        # the pending scenes go out first, the oversized one alone, then
        # packing resumes with the scenes after it
        base = _scene(n=2, seed=9)
        big = TrajectoryScene(
            ped_ids=[f"p{i}" for i in range(300)],
            positions=np.tile(base.positions, (150, 1, 1)),
            presence=np.tile(base.presence, (150, 1)),
            obs_len=base.obs_len,
        )
        small = [_scene(n=2, seed=s) for s in range(4)]
        batches = pack_batches(small[:2] + [big] + small[2:], budget=256, max_scenes=16)
        assert [b.scene.n_peds for b in batches] == [4, 300, 4]
        assert [len(b.sizes) for b in batches] == [2, 1, 2]
        assert batches[1].scene.ped_ids == big.ped_ids

    def test_max_scenes_cap(self):
        scenes = [_scene(n=2, seed=s) for s in range(5)]
        batches = pack_batches(scenes, budget=256, max_scenes=2)
        assert [len(b.sizes) for b in batches] == [2, 2, 1]

    def test_scene_ids_partition(self):
        scenes = [_scene(n=2, seed=s) for s in range(3)]
        batch = merge_scenes(scenes)
        np.testing.assert_array_equal(batch.sizes, [2, 2, 2])
        # the rows of scene i follow those of scenes 0..i-1
        np.testing.assert_array_equal(np.repeat(np.arange(3), batch.sizes), [0, 0, 1, 1, 2, 2])
        assert batch.scene.n_peds == 6

    def test_merge_layout_mismatch_rejected(self):
        with pytest.raises(DataFormatError):
            merge_scenes([_scene(total=20), _scene(total=21)])
        with pytest.raises(DataFormatError):
            merge_scenes([])
