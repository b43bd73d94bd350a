//! Deterministic effort budgets and fault injection for the manager.
//!
//! A budget is counted in *effort ticks*: one tick per ITE recursion step
//! ([`OpClass::Ite`]) and one per fresh unique-table insertion
//! ([`OpClass::UniqueInsert`]). Ticks are a pure function of the work the
//! manager performs — never wall clock, never thread scheduling — so a
//! budget trips at exactly the same tick on every run at any `jobs` count,
//! preserving the byte-identical determinism contract of the flow layer.
//!
//! The same tick counter doubles as the trigger clock for *fault
//! injection*: [`Manager::arm_fault`] plants a [`Fault`] that fires once
//! when the spent-tick counter reaches an absolute trigger tick. The chaos
//! suite in `bds-prop`/`tests/chaos_flow.rs` uses this to provoke budget
//! exhaustion, allocation failure and worker panics at reproducible
//! points deep inside a synthesis flow.

use crate::error::{BddError, OpClass};
use crate::manager::Manager;
use crate::Result;

/// A fault that can be armed on a [`Manager`] to fire at a chosen effort
/// tick (see [`Manager::arm_fault`]). Each fault fires at most once, then
/// disarms itself.
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Report the effort budget as exhausted
    /// ([`BddError::BudgetExceeded`]), regardless of the configured limit.
    Budget,
    /// Simulate a unique-table allocation failure
    /// ([`BddError::NodeLimit`] at the current arena size).
    Alloc,
    /// Panic, as a worker thread hitting an unexpected bug would. The
    /// panic message names the trigger tick so it is deterministic.
    Panic,
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fault::Budget => write!(f, "budget-exhausted"),
            Fault::Alloc => write!(f, "alloc-failure"),
            Fault::Panic => write!(f, "worker-panic"),
        }
    }
}

impl Manager {
    /// Effort ticks consumed so far (including any preload from
    /// [`Manager::seed_effort`]).
    pub fn effort_spent(&self) -> u64 {
        self.effort_spent
    }

    /// The configured effort ceiling (`u64::MAX` when unbudgeted).
    pub fn effort_limit(&self) -> u64 {
        self.effort_limit
    }

    /// Budgets the manager: once more than `limit` effort ticks have been
    /// spent, fallible operations return [`BddError::BudgetExceeded`].
    ///
    /// Like the node limit this is back-pressure, not a hard stop: the
    /// manager stays usable and the caller decides how to retreat.
    pub fn set_effort_limit(&mut self, limit: u64) {
        self.effort_limit = limit;
    }

    /// Preloads the spent-tick counter with effort charged to *earlier*
    /// managers of the same logical task, so a budget spanning several
    /// phases (build, then reorder, then decompose — each with its own
    /// manager) trips on the cumulative count and errors report cumulative
    /// numbers.
    pub fn seed_effort(&mut self, spent: u64) {
        self.effort_spent = spent;
    }

    /// Arms `fault` to fire once the spent-tick counter reaches the
    /// absolute tick `at_tick`. Re-arming replaces any pending fault;
    /// a fault fires at most once, then disarms.
    pub fn arm_fault(&mut self, fault: Fault, at_tick: u64) {
        self.armed_fault = Some((fault, at_tick));
    }

    /// Charges one effort tick of class `op`, firing any armed fault whose
    /// trigger tick has been reached and enforcing the budget.
    pub(crate) fn charge(&mut self, op: OpClass) -> Result<()> {
        self.effort_spent += 1;
        if self.effort_limit == u64::MAX && self.armed_fault.is_none() {
            return Ok(()); // fast path: unbudgeted, nothing armed
        }
        if let Some((fault, at_tick)) = self.armed_fault {
            if self.effort_spent >= at_tick {
                self.armed_fault = None;
                match fault {
                    Fault::Budget => {
                        return Err(BddError::BudgetExceeded {
                            spent: self.effort_spent,
                            limit: self.effort_limit,
                            op,
                        });
                    }
                    Fault::Alloc => {
                        return Err(BddError::NodeLimit {
                            limit: self.nodes.len(),
                        });
                    }
                    #[expect(clippy::panic, reason = "deterministic fault injection (chaos suite)")]
                    Fault::Panic => {
                        panic!("injected fault: worker panic at effort tick {at_tick}");
                    }
                }
            }
        }
        if self.effort_spent > self.effort_limit {
            return Err(BddError::BudgetExceeded {
                spent: self.effort_spent,
                limit: self.effort_limit,
                op,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Edge;

    fn xor_chain(m: &mut Manager, n: usize) -> Result<Edge> {
        let vars = m.new_vars(n);
        let mut acc = m.literal_checked(vars[0], true)?;
        for &v in &vars[1..] {
            let lit = m.literal_checked(v, true)?;
            acc = m.xor(acc, lit)?;
        }
        Ok(acc)
    }

    #[test]
    fn unbudgeted_manager_never_trips() {
        let mut m = Manager::new();
        assert_eq!(m.effort_limit(), u64::MAX);
        xor_chain(&mut m, 8).unwrap();
        assert!(m.effort_spent() > 0);
    }

    #[test]
    fn budget_trips_with_cumulative_numbers() {
        let mut m = Manager::new();
        m.set_effort_limit(10);
        let err = xor_chain(&mut m, 16).unwrap_err();
        match err {
            BddError::BudgetExceeded { spent, limit, .. } => {
                assert_eq!(limit, 10);
                assert_eq!(spent, 11);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn effort_ticks_are_deterministic() {
        let spent = |n| {
            let mut m = Manager::new();
            xor_chain(&mut m, n).unwrap();
            m.effort_spent()
        };
        assert_eq!(spent(12), spent(12));
        assert!(spent(12) > spent(6));
    }

    #[test]
    fn seed_effort_preloads_the_counter() {
        let mut m = Manager::new();
        m.seed_effort(100);
        m.set_effort_limit(101);
        let err = xor_chain(&mut m, 8).unwrap_err();
        match err {
            BddError::BudgetExceeded { spent, .. } => assert!(spent > 100),
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn budget_fault_fires_once_at_the_armed_tick() {
        let mut m = Manager::new();
        m.arm_fault(Fault::Budget, 5);
        let err = xor_chain(&mut m, 16).unwrap_err();
        assert!(matches!(err, BddError::BudgetExceeded { spent: 5, .. }));
        // Disarmed: the same manager keeps working afterwards.
        let vars = m.new_vars(2);
        let a = m.literal_checked(vars[0], true).unwrap();
        let b = m.literal_checked(vars[1], true).unwrap();
        m.and(a, b).unwrap();
    }

    #[test]
    fn alloc_fault_reports_node_limit_at_arena_size() {
        let mut m = Manager::new();
        m.arm_fault(Fault::Alloc, 4);
        let err = xor_chain(&mut m, 16).unwrap_err();
        match err {
            BddError::NodeLimit { limit } => assert!(limit >= 1),
            other => panic!("expected NodeLimit, got {other:?}"),
        }
    }

    #[test]
    fn panic_fault_panics_with_the_tick_in_the_message() {
        let mut m = Manager::new();
        m.arm_fault(Fault::Panic, 3);
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = xor_chain(&mut m, 16);
        }))
        .unwrap_err();
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("injected fault"), "unexpected payload: {msg}");
        assert!(msg.contains("tick 3"));
    }

    #[test]
    fn fault_display_is_kebab_case() {
        assert_eq!(Fault::Budget.to_string(), "budget-exhausted");
        assert_eq!(Fault::Alloc.to_string(), "alloc-failure");
        assert_eq!(Fault::Panic.to_string(), "worker-panic");
    }
}
