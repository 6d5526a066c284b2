"""The fixed elements of the circuit tables, as exact 2x2 matrices.

There are no tunable wave-plate angles, and every element listed here is
placed by a circuit table in protocols (_STAGES or _CLUSTER_SEGMENTS, whose
first segment, _CONTROL_HADAMARDS, is also the Bell analysis). The
circular-basis polarizing beam splitter (CPBS), its bit-flip plates and the
cavity-pass phase plates have no entry: each CPBS/bit-flip/cavity sandwich
and its phase plate are folded into the single cavity-pass diagonal (see
protocols._PASS_COLD and _PASS_TURNED).
"""

from __future__ import annotations

from enum import Enum

import numpy as np

_SQRT2 = np.sqrt(2.0)


class ElementKind(Enum):
    BS = "bs"  # 50:50 beam splitter: Hadamard on a spatial-mode register
    HWP_H = "hwp_h"  # polarization Hadamard
    HWP_PHASEFLIP = "hwp_phaseflip"  # sign flip on R
    SPIN_H = "spin_h"  # spin Hadamard
    SPIN_ROT_PLUS = "spin_rot_plus"  # up -> (i up + down)/sqrt2, down -> (i up - down)/sqrt2


_HADAMARD = np.array([[1, 1], [1, -1]], dtype=np.complex128) / _SQRT2

_MATRICES: dict[ElementKind, np.ndarray] = {
    ElementKind.BS: _HADAMARD,
    ElementKind.HWP_H: _HADAMARD,
    ElementKind.HWP_PHASEFLIP: np.diag([-1, 1]).astype(np.complex128),
    ElementKind.SPIN_H: _HADAMARD,
    ElementKind.SPIN_ROT_PLUS: np.array([[1j, 1j], [1, -1]], dtype=np.complex128) / _SQRT2,
}


def element_matrix(kind: ElementKind) -> np.ndarray:
    """The 2x2 matrix of an element."""
    return _MATRICES[kind].copy()


def conditional_matrix(kind: ElementKind, control_value: int) -> np.ndarray:
    """The 4x4 matrix on (control, target) of an element that acts on the
    target only in one control basis branch, as a wave plate sitting in a
    single spatial path does: the identity, with the element in the control
    value's 2x2 corner."""
    if control_value not in (0, 1):
        raise ValueError(f"control_value must be a basis index (0 or 1), got {control_value}")
    block = np.eye(4, dtype=np.complex128)
    corner = slice(2 * control_value, 2 * control_value + 2)
    block[corner, corner] = _MATRICES[kind]
    return block
