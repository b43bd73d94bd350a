//! Sampled telemetry timeline: periodic snapshots of a BDD manager's
//! live gauges, keyed deterministically.
//!
//! The counters in `bds-bdd` answer "how much work happened in total";
//! the timeline answers "when did the bytes and the misses arrive". A
//! sample is pushed every [`SAMPLE_INTERVAL`] ite calls — a logical
//! clock, not a wall clock — so the *structural* fields of a timeline
//! are a pure function of the work performed:
//!
//! * the sample key is `(scope, tick)`, where `scope` is set by the
//!   flow (the supernode's signal index, or [`GLOBAL_SCOPE`]) and
//!   `tick` is the manager's lifetime `ite_calls` count at the sample;
//! * the sampled values are arena/table gauges that are themselves
//!   deterministic (capacities depend only on insertion history);
//! * `wall_ns` is the one non-structural field, excluded from
//!   [`Timeline::structural_json`] — the representation the
//!   differential tests compare byte-for-byte across job counts.
//!
//! # Bounding
//!
//! Each *scope activation* ([`set_scope`] call) may record at most
//! [`MAX_SAMPLES_PER_SCOPE`] samples; later ones are dropped. The cap
//! is per activation rather than per thread so the bound is invariant
//! under sharding: a worker that processes a supernode resets the
//! budget exactly where the sequential flow would.
//!
//! # Merging across shards
//!
//! Like the registry and the journal, the timeline is thread-local.
//! Workers drain with [`take_timeline`]; the coordinator re-injects
//! the pieces in a **fixed worker order** with [`absorb_timeline`].
//! Rendering stable-sorts by `(scope, tick)`, so the final order is
//! independent of thread count: every scope is produced by exactly one
//! worker sequentially, and the fixed absorb order breaks the
//! remaining ties the same way at any job count.

use std::cell::RefCell;
use std::time::Instant;

use crate::json::Json;

/// A timeline sample is pushed every this-many `ite` calls.
///
/// Small enough that the short-lived per-supernode managers of the
/// partitioned flow still produce samples, large enough to keep the
/// sampling cost invisible next to the ITE recursion it rides on.
pub const SAMPLE_INTERVAL: u64 = 64;

/// Per scope-activation sample budget (see module docs on bounding).
///
/// Sixteen samples are plenty to show a scope's growth curve, and the
/// cap is what bounds the size of a checked-in telemetry file: the
/// global scope is re-activated many times per flow, so the on-disk
/// sample count scales linearly with this number.
pub const MAX_SAMPLES_PER_SCOPE: usize = 16;

/// The scope outside any supernode — whole-network (global) builds.
pub const GLOBAL_SCOPE: u64 = u64::MAX;

/// Column order of the structural JSON rows; [`Timeline::to_json`]
/// appends a trailing `wall_ns` column.
const STRUCTURAL_COLUMNS: [&str; 9] = [
    "scope",
    "tick",
    "arena_nodes",
    "arena_bytes",
    "unique_entries",
    "unique_capacity",
    "computed_entries",
    "cache_hits",
    "cache_misses",
];

/// The live gauges captured by one sample.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SampleValues {
    /// Arena size (nodes, including the terminal).
    pub arena_nodes: u64,
    /// Modeled bytes held by the manager (arena + both tables).
    pub arena_bytes: u64,
    /// Entries in the unique (hash-cons) table.
    pub unique_entries: u64,
    /// Allocated capacity of the unique table.
    pub unique_capacity: u64,
    /// Entries in the ITE computed table.
    pub computed_entries: u64,
    /// Computed-table hits so far (manager lifetime).
    pub cache_hits: u64,
    /// Computed-table misses so far (manager lifetime).
    pub cache_misses: u64,
}

/// One timeline sample. Every field except `wall_ns` is structural.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Sample {
    /// Flow-assigned scope (supernode signal index or [`GLOBAL_SCOPE`]).
    pub scope: u64,
    /// The owning manager's `ite_calls` count when the sample was taken.
    pub tick: u64,
    /// The sampled gauges.
    pub values: SampleValues,
    /// Nanoseconds since this thread's timeline epoch. **Not**
    /// structural: the only field allowed to differ across runs and
    /// job counts.
    pub wall_ns: u64,
}

/// An ordered collection of samples, possibly merged from several
/// threads. Obtain via [`take_timeline`], combine with
/// [`Timeline::merge`] or [`absorb_timeline`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Timeline {
    /// The samples, in recording/absorption order until rendered
    /// (rendering sorts by `(scope, tick)`).
    pub samples: Vec<Sample>,
}

struct TimelineCell {
    samples: Vec<Sample>,
    scope: u64,
    in_scope: usize,
    epoch: Instant,
}

thread_local! {
    #[expect(
        clippy::disallowed_methods,
        reason = "timeline samples are stamped against a per-thread epoch"
    )]
    static TIMELINE: RefCell<TimelineCell> = RefCell::new(TimelineCell {
        samples: Vec::new(),
        scope: GLOBAL_SCOPE,
        in_scope: 0,
        epoch: Instant::now(),
    });
}

/// Enters a sampling scope and resets the per-activation sample
/// budget. The flow calls this at each supernode (signal index) and
/// with [`GLOBAL_SCOPE`] for whole-network builds.
pub fn set_scope(scope: u64) {
    TIMELINE.with(|t| {
        let mut t = t.borrow_mut();
        t.scope = scope;
        t.in_scope = 0;
    });
}

/// Records one sample at logical time `tick` under the current scope,
/// unless this activation's budget is spent. Called from the `ite`
/// hot path (already gated on `is_enabled` and the interval there).
pub fn observe(tick: u64, values: &SampleValues) {
    if !crate::is_enabled() {
        return;
    }
    TIMELINE.with(|t| {
        let mut t = t.borrow_mut();
        if t.in_scope >= MAX_SAMPLES_PER_SCOPE {
            return;
        }
        t.in_scope += 1;
        let wall_ns = u64::try_from(t.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let (scope, values) = (t.scope, *values);
        t.samples.push(Sample {
            scope,
            tick,
            values,
            wall_ns,
        });
    });
}

/// Drains this thread's samples and resets the scope to
/// [`GLOBAL_SCOPE`] with a fresh budget. The epoch survives, so a
/// thread that records again keeps one ordered wall clock.
#[must_use]
pub fn take_timeline() -> Timeline {
    TIMELINE.with(|t| {
        let mut t = t.borrow_mut();
        t.scope = GLOBAL_SCOPE;
        t.in_scope = 0;
        Timeline {
            samples: std::mem::take(&mut t.samples),
        }
    })
}

/// Clears this thread's samples without returning them.
pub fn clear_timeline() {
    let _ = take_timeline();
}

/// Re-injects a drained worker timeline into this thread's buffer.
/// Call in a fixed worker order (the sharded flow's contract) so the
/// absorption order — the tie-breaker for duplicate `(scope, tick)`
/// keys — is the same at any job count. Does not touch the absorbing
/// thread's scope or budget.
pub fn absorb_timeline(worker: Timeline) {
    TIMELINE.with(|t| t.borrow_mut().samples.extend(worker.samples));
}

impl Timeline {
    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when no samples were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Appends `other`'s samples (callers merge in fixed worker order).
    pub fn merge(&mut self, other: Timeline) {
        self.samples.extend(other.samples);
    }

    /// The samples stable-sorted by `(scope, tick)` — the canonical
    /// render order, independent of thread count.
    fn sorted(&self) -> Vec<Sample> {
        let mut samples = self.samples.clone();
        samples.sort_by_key(|s| (s.scope, s.tick));
        samples
    }

    /// Full JSON (canonical order), including the non-structural
    /// `wall_ns` field.
    #[must_use]
    pub fn to_json(&self) -> Json {
        self.render(true)
    }

    /// Structural JSON (canonical order) with `wall_ns` omitted: two
    /// runs of the same work must render byte-identically here at any
    /// job count.
    #[must_use]
    pub fn structural_json(&self) -> Json {
        self.render(false)
    }

    fn render(&self, with_wall: bool) -> Json {
        // Columnar layout: a `columns` name header plus one flat row of
        // scalars per sample. Rows of scalars render on a single line,
        // which is what keeps the checked-in telemetry file small —
        // an object per sample is an order of magnitude more text.
        let mut columns: Vec<Json> = STRUCTURAL_COLUMNS
            .iter()
            .map(|c| Json::Str((*c).to_string()))
            .collect();
        if with_wall {
            columns.push(Json::Str("wall_ns".to_string()));
        }
        let samples: Vec<Json> = self
            .sorted()
            .into_iter()
            .map(|s| {
                let mut row = vec![
                    Json::Int(s.scope),
                    Json::Int(s.tick),
                    Json::Int(s.values.arena_nodes),
                    Json::Int(s.values.arena_bytes),
                    Json::Int(s.values.unique_entries),
                    Json::Int(s.values.unique_capacity),
                    Json::Int(s.values.computed_entries),
                    Json::Int(s.values.cache_hits),
                    Json::Int(s.values.cache_misses),
                ];
                if with_wall {
                    row.push(Json::Int(s.wall_ns));
                }
                Json::Arr(row)
            })
            .collect();
        Json::Obj(vec![
            ("columns".to_string(), Json::Arr(columns)),
            ("samples".to_string(), Json::Arr(samples)),
        ])
    }

    /// Parses a timeline rendered by [`Timeline::to_json`] or
    /// [`Timeline::structural_json`] (`wall_ns` defaults to 0 when its
    /// column is absent). Rows are matched to fields through the
    /// `columns` header, so column order is not load-bearing. `None` if
    /// the shape is not a timeline.
    #[must_use]
    pub fn from_json(doc: &Json) -> Option<Timeline> {
        let columns: Vec<&str> = doc
            .get("columns")?
            .as_arr()?
            .iter()
            .map(Json::as_str)
            .collect::<Option<Vec<_>>>()?;
        let col = |name: &str| columns.iter().position(|c| *c == name);
        let field = |row: &[Json], name: &str| -> Option<u64> { row.get(col(name)?)?.as_u64() };
        let samples = doc.get("samples")?.as_arr()?;
        let mut out = Vec::with_capacity(samples.len());
        for s in samples {
            let row = s.as_arr()?;
            out.push(Sample {
                scope: field(row, "scope")?,
                tick: field(row, "tick")?,
                values: SampleValues {
                    arena_nodes: field(row, "arena_nodes")?,
                    arena_bytes: field(row, "arena_bytes")?,
                    unique_entries: field(row, "unique_entries")?,
                    unique_capacity: field(row, "unique_capacity")?,
                    computed_entries: field(row, "computed_entries")?,
                    cache_hits: field(row, "cache_hits")?,
                    cache_misses: field(row, "cache_misses")?,
                },
                wall_ns: field(row, "wall_ns").unwrap_or(0),
            });
        }
        Some(Timeline { samples: out })
    }

    /// Peak `arena_bytes` across all samples (0 for an empty timeline).
    #[must_use]
    pub fn peak_arena_bytes(&self) -> u64 {
        self.samples
            .iter()
            .map(|s| s.values.arena_bytes)
            .max()
            .unwrap_or(0)
    }

    /// Peak unique-table load factor across all samples (0.0 when no
    /// sample saw an allocated table).
    #[must_use]
    pub fn peak_unique_load(&self) -> f64 {
        self.samples
            .iter()
            .filter(|s| s.values.unique_capacity > 0)
            .map(|s| {
                #[expect(clippy::cast_precision_loss, reason = "table sizes are far below 2^52")]
                {
                    s.values.unique_entries as f64 / s.values.unique_capacity as f64
                }
            })
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(scope: u64, tick: u64, arena_bytes: u64) -> Sample {
        Sample {
            scope,
            tick,
            values: SampleValues {
                arena_nodes: 3,
                arena_bytes,
                unique_entries: 2,
                unique_capacity: 8,
                computed_entries: 1,
                cache_hits: 4,
                cache_misses: 5,
            },
            wall_ns: 123,
        }
    }

    #[test]
    fn observe_respects_scope_budget() {
        clear_timeline();
        set_scope(7);
        for i in 0..(MAX_SAMPLES_PER_SCOPE + 10) {
            observe(i as u64, &SampleValues::default());
        }
        let t = take_timeline();
        if crate::is_enabled() {
            assert_eq!(t.len(), MAX_SAMPLES_PER_SCOPE);
            assert!(t.samples.iter().all(|s| s.scope == 7));
        } else {
            assert!(t.is_empty(), "observe is a no-op without `enabled`");
        }
    }

    #[test]
    fn set_scope_resets_the_budget() {
        clear_timeline();
        set_scope(1);
        for i in 0..MAX_SAMPLES_PER_SCOPE {
            observe(i as u64, &SampleValues::default());
        }
        observe(999, &SampleValues::default()); // over budget, dropped
        set_scope(2); // fresh activation, fresh budget
        observe(0, &SampleValues::default());
        let t = take_timeline();
        if crate::is_enabled() {
            assert_eq!(t.len(), MAX_SAMPLES_PER_SCOPE + 1);
            assert_eq!(t.samples.last().unwrap().scope, 2);
        }
    }

    #[test]
    fn structural_json_sorts_and_omits_wall_ns() {
        let t = Timeline {
            samples: vec![sample(2, 64, 10), sample(1, 128, 20), sample(1, 64, 30)],
        };
        let doc = t.structural_json();
        let rendered = doc.render();
        assert!(!rendered.contains("wall_ns"));
        let keys: Vec<(u64, u64)> = doc
            .get("samples")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|row| {
                let row = row.as_arr().unwrap();
                (row[0].as_u64().unwrap(), row[1].as_u64().unwrap())
            })
            .collect();
        assert_eq!(keys, vec![(1, 64), (1, 128), (2, 64)]);
    }

    #[test]
    fn duplicate_keys_keep_absorption_order() {
        // Two samples with the same (scope, tick) — e.g. a supernode's
        // sift scratch manager restarting its ite clock — must stay in
        // recording order through the stable sort.
        let t = Timeline {
            samples: vec![sample(1, 64, 111), sample(1, 64, 222)],
        };
        // Column 3 is `arena_bytes` (see STRUCTURAL_COLUMNS).
        let arr_bytes: Vec<u64> = t
            .structural_json()
            .get("samples")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|row| row.as_arr().unwrap()[3].as_u64().unwrap())
            .collect();
        assert_eq!(arr_bytes, vec![111, 222]);
    }

    #[test]
    fn json_round_trip_preserves_samples() {
        let t = Timeline {
            samples: vec![sample(1, 64, 10), sample(2, 128, 20)],
        };
        let back = Timeline::from_json(&t.to_json()).unwrap();
        assert_eq!(back, t);
        // The structural render drops wall_ns; the round trip zeroes it.
        let structural = Timeline::from_json(&t.structural_json()).unwrap();
        assert!(structural.samples.iter().all(|s| s.wall_ns == 0));
        assert_eq!(structural.samples[0].values, t.samples[0].values);
    }

    #[test]
    fn peaks_over_samples() {
        let t = Timeline {
            samples: vec![sample(1, 64, 10), sample(1, 128, 500), sample(2, 64, 20)],
        };
        assert_eq!(t.peak_arena_bytes(), 500);
        assert!((t.peak_unique_load() - 0.25).abs() < 1e-12);
        assert_eq!(Timeline::default().peak_arena_bytes(), 0);
        assert_eq!(Timeline::default().peak_unique_load(), 0.0);
    }

    #[test]
    fn absorb_appends_to_the_current_thread() {
        clear_timeline();
        let worker = Timeline {
            samples: vec![sample(3, 64, 1)],
        };
        absorb_timeline(worker);
        let t = take_timeline();
        assert_eq!(t.len(), 1);
        assert_eq!(t.samples[0].scope, 3);
    }
}
