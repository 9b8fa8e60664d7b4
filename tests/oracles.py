"""Brute-force oracles shared by several test files."""


def covering_origins(grid, row, col):
    """Origins of all windows of `grid` containing spatial pixel (row, col),
    in grid.origins order, by checking every window."""
    j = grid.config.patch_side
    return [(r, c) for r, c in grid.origins if r <= row < r + j and c <= col < c + j]
