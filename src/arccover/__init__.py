"""Random covering of the circle by arcs of shrinking length.

Library layout:

* torus     - exact arc / interval-union arithmetic on R/Z
* targets   - circle, Cantor pre-fractal, finite and custom target sets
* lengths   - length sequences, delta and covering-exponent diagnostics,
              block schedules, covering and Shepp series
* simulate  - seeded trials with exact per-checkpoint coverage decisions
* analyze   - phase scans, box-dimension estimates of uncovered residue
* cli       - the `arccover` command line front end
"""

from .analyze import (DimensionEstimate, DimensionScan, ScanResult, ScanRow,
                      box_dimension, nested_scales, occupied_cell_count,
                      phase_scan, uncovered_dimension_experiment,
                      wilson_interval)
from .errors import ConfigError
from .lengths import (BlockSequence, Harmonic, LengthSequence, LogOverN,
                      PowerLaw, Schedule, ScheduleError, SeriesResult,
                      TableSequence, block_sequence, both_series,
                      choose_schedule, covering_series,
                      estimate_covering_exponent, estimate_delta,
                      parse_lengths, rare_block_sum, shepp_series)
from .simulate import (CoverageTrace, TrialConfig, checkpoint_grid, run_trial,
                       sample_centers, uncovered_at)
from .targets import (TargetSet, make_cantor, make_circle, make_custom,
                      make_finite, parse_target)
from .torus import (Arc, EMPTY, FULL_CIRCLE, IntervalUnion, arcs_to_union,
                    complement, contains_points, covers, intersect, measure,
                    union)

__version__ = "0.1.0"
