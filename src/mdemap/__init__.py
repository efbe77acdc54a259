"""mdemap: multiscale moving direction entropy maps from GPS trajectories."""

from .errors import (ConfigError, EmptyFieldError, EmptyHistogramError,
                     InvalidAngleError, InvalidScaleError, MdemapError,
                     OutOfAreaError, PointParseError)
from .mesh import (AreaOfInterest, DEFAULT_AOI, EARTH_RADIUS_M, GeoPoint,
                   LocalCoord, MeshId, METERS_PER_DEGREE, STANDARD_SCALES_M,
                   geo_distance, inverse_project, mesh_center, mesh_centers,
                   mesh_corners, mesh_of, parent_of, project)
from .ingest import (ExtractionStats, MovementBatch, ParseResult,
                     extract_movements, parse_points)
from .field import (ALL_TIME, BIN_WIDTH, FieldAccumulator, MAX_ENTROPY,
                    MdeField, MeshEntry, N_BINS, TimeWindow, compute_field,
                    compute_fields, entropy_norm)
from .fusion import CombinedMap, combine, find_local_peaks, normalize
from .evaluation import (DEFAULT_RADII_KM, DEFAULT_THRESHOLDS_M,
                         DEFAULT_TOP_K, PrecisionCurve, RecallCurve, Station,
                         TopKSelection, check_stations, default_x_values,
                         precision_curve, recall_curve, top_k)
from .synth import (Corridor, GroundTruth, Hub, SynthConfig, default_config,
                    default_sites, generate)
from . import kernels

__version__ = "0.1.0"

__all__ = [
    "AreaOfInterest", "ALL_TIME", "BIN_WIDTH", "CombinedMap",
    "ConfigError", "Corridor", "DEFAULT_AOI", "DEFAULT_RADII_KM",
    "DEFAULT_THRESHOLDS_M", "DEFAULT_TOP_K", "EARTH_RADIUS_M",
    "EmptyFieldError", "EmptyHistogramError", "ExtractionStats",
    "FieldAccumulator", "GeoPoint", "GroundTruth", "Hub",
    "InvalidAngleError", "InvalidScaleError", "LocalCoord", "MAX_ENTROPY",
    "MdeField", "MdemapError", "MeshEntry", "MeshId", "METERS_PER_DEGREE",
    "MovementBatch", "N_BINS", "OutOfAreaError", "ParseResult",
    "PointParseError", "PrecisionCurve", "RecallCurve", "STANDARD_SCALES_M",
    "Station", "SynthConfig", "TimeWindow", "TopKSelection",
    "check_stations", "combine", "compute_field", "compute_fields",
    "default_config", "default_sites", "default_x_values", "entropy_norm",
    "extract_movements", "find_local_peaks", "generate", "geo_distance",
    "inverse_project", "kernels", "mesh_center", "mesh_centers",
    "mesh_corners", "mesh_of", "normalize", "parent_of", "parse_points",
    "precision_curve", "project", "recall_curve", "top_k",
]
