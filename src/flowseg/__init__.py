"""flowseg: windowed segmentation of dominant linear motion flows.

Dense optical flow seeds keypoint groups on the first two frames of each
temporal window; a stochastic drift/confinement particle model propagates
the groups across the remaining frames, so flow is computed once per
window instead of once per frame pair.
"""

from .dynamics import (
    ForceAblation,
    GroupForces,
    LangevinParams,
    NoiseSource,
    ParticleState,
    estimate_group_forces,
    propagate_map,
    step_particle,
)
from .errors import (
    ConfigError,
    FlowSegError,
    FormatError,
    InputError,
    MetricError,
    SourceError,
)
from .evaluation import (
    AccuracyReport,
    LabelMask,
    accuracy,
    iou,
    rasterize,
    render_overlay,
    report,
)
from .flow import FlowParams, compute_dense_flow
from .io import (
    FlowField,
    Frame,
    read_flow_file,
    read_frame,
    write_flow_file,
    write_frame,
)
from .keypoints import (
    Group,
    MagOriMaps,
    QuantizedMap,
    SegmentationMap,
    detect_peaks,
    group_keypoints,
    magnitude_orientation,
    maps_identical,
    quantize,
    segment_flow,
)
from .pipeline import PipelineConfig, RunResult, segment_video, stream_windows
from .synth import (
    BlockSpec,
    SceneSpec,
    ar1_stationary_variance,
    bench_compare,
    generate_scene,
    noise_texture,
    ou_statistics,
    preset_scene,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyReport",
    "BlockSpec",
    "ConfigError",
    "FlowField",
    "FlowParams",
    "FlowSegError",
    "ForceAblation",
    "FormatError",
    "Frame",
    "Group",
    "GroupForces",
    "InputError",
    "LabelMask",
    "LangevinParams",
    "MagOriMaps",
    "MetricError",
    "NoiseSource",
    "ParticleState",
    "PipelineConfig",
    "QuantizedMap",
    "RunResult",
    "SceneSpec",
    "SegmentationMap",
    "SourceError",
    "accuracy",
    "ar1_stationary_variance",
    "bench_compare",
    "compute_dense_flow",
    "detect_peaks",
    "estimate_group_forces",
    "generate_scene",
    "group_keypoints",
    "iou",
    "magnitude_orientation",
    "maps_identical",
    "noise_texture",
    "ou_statistics",
    "preset_scene",
    "propagate_map",
    "quantize",
    "rasterize",
    "read_flow_file",
    "read_frame",
    "render_overlay",
    "report",
    "segment_flow",
    "segment_video",
    "step_particle",
    "stream_windows",
    "write_flow_file",
    "write_frame",
]
