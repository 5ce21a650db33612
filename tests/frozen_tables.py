"""Frozen oracle constants shared by module and acceptance tests.

Student-t quantiles tabulated offline by numerically inverting the
regularized incomplete beta CDF; values agree with published t tables.

MATCHER_WORK holds `test_pattern._matcher_work()` as computed by the
matcher that kept end tags relative to the boundary inside a run: step
counts, match counts and the first 16 hex digits of the SHA-256 of the
matches as int64 (start, end) pairs.
"""

T_TABLE = {
    (0.9, 1): 3.0776835372078066, (0.95, 1): 6.313751514800932,
    (0.975, 1): 12.706204736432095, (0.995, 1): 63.65674116287399,
    (0.9, 2): 1.8856180831641507, (0.95, 2): 2.919985580355516,
    (0.975, 2): 4.302652729696142, (0.995, 2): 9.92484320091807,
    (0.9, 5): 1.4758840488558216, (0.95, 5): 2.0150483733330233,
    (0.975, 5): 2.570581835636314, (0.995, 5): 4.032142983557536,
    (0.9, 10): 1.3721836411102863, (0.95, 10): 1.8124611228107335,
    (0.975, 10): 2.2281388519649385, (0.995, 10): 3.16927267261695,
    (0.9, 30): 1.310415025391396, (0.95, 30): 1.6972608865939574,
    (0.975, 30): 2.0422724563012373, (0.995, 30): 2.7499956535670305,
    (0.9, 100): 1.2900747613398769, (0.95, 100): 1.66023432606575,
    (0.975, 100): 1.9839715184496334, (0.995, 100): 2.6258905214380177,
}

NORMAL_Q975 = 1.959963984540054

# (pattern, stream): (backward steps + matches, matches, digest)
MATCHER_WORK = {
    ('u{3,}d+', 'chatter3'): (5153, 59, '1f77a516ad69511f'),
    ('u{3,}d+', 'chatter6'): (3090, 0, 'e3b0c44298fc1c14'),
    ('u{3,}d+', 'long'): (286, 24, '9fc3344bb9f4071d'),
    ('s+(u|d)', 'chatter3'): (6884, 1303, 'd6be90adfb523b16'),
    ('s+(u|d)', 'chatter6'): (4513, 844, '74be868bd7b6254f'),
    ('s+(u|d)', 'long'): (321, 28, 'f5c9fcf446442756'),
    ('d.{0,40}u', 'chatter3'): (6145, 165, 'baa6e4e5ad9d3c1f'),
    ('d.{0,40}u', 'chatter6'): (3090, 0, 'e3b0c44298fc1c14'),
    ('d.{0,40}u', 'long'): (3385, 27, '927b3150732bc711'),
    ('(ud|du|sd|ds){2,}', 'chatter3'): (6520, 520, 'fadacaf28310db72'),
    ('(ud|du|sd|ds){2,}', 'chatter6'): (5350, 226, '8010658e91c2acd9'),
    ('(ud|du|sd|ds){2,}', 'long'): (400, 0, 'e3b0c44298fc1c14'),
    ('u{2,}d+', 'chatter3'): (5232, 138, '3054df0e4b3e4284'),
    ('u{2,}d+', 'chatter6'): (3090, 0, 'e3b0c44298fc1c14'),
    ('u{2,}d+', 'long'): (262, 24, '9fc3344bb9f4071d'),
    ('d+(s.*u)?', 'chatter3'): (5036, 1, '7c93edb43e72dcc7'),
    ('d+(s.*u)?', 'chatter6'): (3934, 844, 'b6d2cfac284b37ea'),
    ('d+(s.*u)?', 'long'): (217, 3, '2dcf334e1e69bde0'),
}
