"""Gesture recognition on 21-keypoint hand skeletons.

Import the submodule you need (``from handgest import lifting``); this
package imports none of them, so ``handgest.cli`` can pin the BLAS threads
before numpy loads.
"""

__version__ = "0.1.0"
