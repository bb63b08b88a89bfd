"""Detection and comparison of multimodal coordinated online behavior.

The toolkit builds multiplex coordination networks from action logs (five
co-action layers: co-retweet, co-reply, co-mention, co-hashtag, co-URL),
detects coordinated communities under several operationalizations of
multimodality (single layer, independent layers, union / intersection
flattening, multislice community detection), and quantifies how the
resulting community structures agree (overlap matrices, optimal matching,
lost / common / gained labels, NMI, structural metric profiles, rank
tests).

Each name is imported from its module, for example
``from multicoord.pipeline import run_build``: the package itself binds
only ``__version__`` and loads none of its modules.
"""

__version__ = "0.1.0"
