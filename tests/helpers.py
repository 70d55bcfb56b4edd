"""Helpers shared by several test modules."""


def state_space_cap(bag_size: int) -> int:
    """Regression guard on DP table sizes: Bell(bag_size) * 4**bag_size."""
    bell = [[1]]
    for i in range(1, bag_size + 1):
        row = [bell[-1][-1]]
        for x in bell[-1]:
            row.append(row[-1] + x)
        bell.append(row)
    b = bell[bag_size][0] if bag_size > 0 else 1
    return b * 4 ** bag_size
