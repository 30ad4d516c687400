"""Narrative tour of the feathered center/surround kernels.

Prints the default 4x4 center and 8x8 surround weight grids, then computes
the largest center-minus-surround score any binary input can produce. With
both kernels normalized to sum to one, that ceiling sits well below 1.0,
which is why thresholds must be chosen inside the achievable range.

Run:  python3 demos/kernel_gallery.py
"""

import numpy as np

from oms import kernel_to_text, make_feathered_kernel
from oms.kernels import difference_kernel

center = make_feathered_kernel(radius=2, sigma=1.0)
surround = make_feathered_kernel(radius=4, sigma=2.0)

print("center kernel (radius 2, sigma 1):")
print(kernel_to_text(center))
print("\nsurround kernel (radius 4, sigma 2):")
print(kernel_to_text(surround))

# The engine scores |corr(F, D)| with D = surround - center on one 8x8 grid.
# D sums to zero, so activating exactly the cells where D > 0 maximizes the
# score; that sum is the hard ceiling.
d = difference_kernel(center, surround)
ceiling = np.maximum(d, 0.0).sum()

print(f"\nweight count: {center.weights.size} + {surround.weights.size} = "
      f"{center.weights.size + surround.weights.size}")
print(f"max achievable |center - surround| score: {ceiling:.4f}")
print("=> any spike threshold above that value can never fire")
