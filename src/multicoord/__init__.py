"""Detection and comparison of multimodal coordinated online behavior.

The toolkit builds multiplex coordination networks from action logs (five
co-action layers: co-retweet, co-reply, co-mention, co-hashtag, co-URL),
detects coordinated communities under several operationalizations of
multimodality (single layer, independent layers, union / intersection
flattening, multislice community detection), and quantifies how the
resulting community structures agree (overlap matrices, optimal matching,
lost / common / gained labels, NMI, structural metric profiles, rank
tests).
"""

__version__ = "0.1.0"

from .errors import (ConfigError, DataError, DegenerateSampleError,
                     InvariantError, MulticoordError, UndefinedMetricError)
from .ingest import (ACTIONS, HST, MEN, RPL, RTW, URL, ActionEvent, ActorSet,
                     EventLog, StopLists, apply_stoplists, extract_domain,
                     load_stoplist, parse_events, select_users)
from .netbuild import (EdgeRowError, LayerGraph, MultiplexNetwork, WindowTfidf,
                       build_multiplex, layer_window_graph, tfidf_windows,
                       window_slices)
from .filternet import (FilterConfig, FilterReport, auto_threshold,
                        filter_by_actions, filter_by_weight, filter_layer,
                        filter_multiplex)
from .community import (Partition, communities, flatten_intersection,
                        flatten_union, generalized_louvain, louvain,
                        modularity, multislice_modularity, restrict_to_layer)
from .compare import (COMMON, GAINED, LOST, MatchResult, OverlapMatrix,
                      actor_coverage, community_sets, edge_coverage,
                      hungarian_match, label_communities, label_nodes, nmi,
                      overlap_matrix, pearson_degree_correlation)
from .characterize import (COMMUNITY_METRIC_NAMES, NODE_METRIC_NAMES,
                           CommunityMetrics, NodeMetrics, TestResult,
                           brunner_munzel, community_metrics, metric_cosine,
                           node_metrics, pca_project, significance_band)
from .synth import GroundTruth, SynthConfig, generate
from .pipeline import (RunConfig, run_build, run_characterize, run_compare,
                       run_detect, run_report, run_synth)

__all__ = [
    "__version__",
    "MulticoordError", "ConfigError", "DataError", "InvariantError",
    "UndefinedMetricError", "DegenerateSampleError",
    "ACTIONS", "RTW", "RPL", "MEN", "HST", "URL",
    "ActionEvent", "EventLog", "StopLists", "ActorSet",
    "parse_events", "apply_stoplists", "load_stoplist", "select_users",
    "extract_domain",
    "WindowTfidf", "EdgeRowError", "LayerGraph", "MultiplexNetwork",
    "window_slices", "tfidf_windows", "layer_window_graph", "build_multiplex",
    "FilterConfig", "FilterReport", "filter_by_actions", "auto_threshold",
    "filter_by_weight", "filter_layer", "filter_multiplex",
    "Partition", "communities",
    "louvain", "modularity", "multislice_modularity", "generalized_louvain",
    "flatten_union", "flatten_intersection", "restrict_to_layer",
    "OverlapMatrix", "MatchResult", "COMMON", "LOST", "GAINED",
    "community_sets", "overlap_matrix", "hungarian_match",
    "label_communities", "label_nodes", "nmi", "actor_coverage",
    "edge_coverage", "pearson_degree_correlation",
    "CommunityMetrics", "NodeMetrics", "TestResult",
    "COMMUNITY_METRIC_NAMES", "NODE_METRIC_NAMES",
    "community_metrics", "node_metrics", "metric_cosine", "pca_project",
    "brunner_munzel", "significance_band",
    "SynthConfig", "GroundTruth", "generate",
    "RunConfig", "run_build", "run_detect", "run_compare",
    "run_characterize", "run_synth", "run_report",
]
