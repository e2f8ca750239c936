#!/usr/bin/env python
"""Scenario: interoperating with MOTChallenge-format data.

A real deployment does not use the simulator — it has detection and
tracking files in the MOTChallenge CSV format.  This example shows the
full interchange loop:

  1. export simulated detections / tracks / ground truth as MOT files,
  2. reload them (all simulation-only attributes are gone, exactly as
     with real data),
  3. run a tracker on the external detections,
  4. run the query engine on the external tracks,
  5. point out the single integration seam for merging: any object with
     an ``extract(detection, frame) -> np.ndarray`` method can replace
     ``SimReIDModel`` inside ``ReidScorer`` — that is where a real ReID
     network plugs in.
"""

import tempfile
from pathlib import Path

from repro import (
    CountQuery,
    NoisyDetector,
    QueryEngine,
    SortTracker,
    mot17_like,
    simulate_world,
)
from repro.io import (
    read_detections_mot,
    read_tracks_mot,
    world_to_mot_gt,
    write_detections_mot,
    write_tracks_mot,
)


def main() -> None:
    preset = mot17_like()
    world = simulate_world(preset.config, n_frames=400, seed=6)
    detections = NoisyDetector().detect_video(world, seed=106)
    tracks = SortTracker().run(detections)

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        det_path = tmp / "det.txt"
        trk_path = tmp / "tracks.txt"
        gt_path = tmp / "gt.txt"

        # 1. Export.
        write_detections_mot(detections, det_path)
        write_tracks_mot(tracks, trk_path)
        world_to_mot_gt(world, gt_path)
        print("exported:")
        for path in (det_path, trk_path, gt_path):
            lines = path.read_text().count("\n")
            print(f"  {path.name}: {lines} rows")
        print("first detection row:", det_path.read_text().split()[0])

        # 2. Reload — this is what real external data looks like.
        ext_detections = read_detections_mot(det_path)
        ext_tracks = read_tracks_mot(trk_path)
        print(
            f"\nreloaded {sum(len(f) for f in ext_detections)} detections, "
            f"{len(ext_tracks)} tracks (simulation attributes stripped)"
        )

        # 3. Trackers run on external detections unchanged.
        retracked = SortTracker().run(ext_detections)
        print(f"re-tracked external detections -> {len(retracked)} tracks")

        # 4. Queries run on external tracks unchanged.
        engine = QueryEngine.from_tracks(ext_tracks)
        answer = engine.run(CountQuery(min_frames=150))
        print(
            f"Count(>=150 frames) on external tracks: {answer.count} objects"
        )

    # 5. The merging seam.
    print(
        "\nTo merge external tracks, construct ReidScorer with any model\n"
        "exposing  extract(detection, frame) -> np.ndarray  (a real ReID\n"
        "network wrapper); every merger (BaselineMerger, TMerge, ...) then\n"
        "runs unchanged.  In this repository SimReIDModel plays that role\n"
        "for simulated worlds."
    )


if __name__ == "__main__":
    main()
