"""Complex-weighted flexible-transmitter networks and their exact embeddings.

The package provides the complex activation catalog, forward evaluators
for every model family, the constructive embeddings between them, well-posed
regression losses, and gradient machinery including the positive-loss
descent probe.
"""

__version__ = "0.1.0"
