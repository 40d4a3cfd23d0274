"""Helpers that only the tests use: the pinhole projection that inverts
`lifting.backproject`, and the reader of `training.save_history` files."""

from affkit.errors import ContractError


def project(point, intr):
    """Pinhole projection, the inverse of backproject."""
    x, y, z = point
    if z <= 0:
        raise ContractError("point behind the camera")
    return (intr.fx * x / z + intr.cx, intr.fy * y / z + intr.cy)


def load_history(path):
    history = []
    with open(path) as fh:
        next(fh)
        for line in fh:
            _, loss = line.strip().split(",")
            history.append(float(loss))
    return history
