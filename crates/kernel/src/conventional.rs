//! A conventional, policy-enforcing security kernel — the baseline.
//!
//! This is the kind of kernel the paper argues *against* using: a
//! KSOS-flavoured kernel that "must not only enforce the security policy of
//! the system on all non-kernel software, but must also adhere to it
//! themselves". It mediates **every** data access against the Bell–LaPadula
//! properties, and — because real systems cannot live inside that
//! discipline — it provides **trusted processes** that may violate the
//! ★-property, with every exercise audited.
//!
//! Experiments E1, E5, and E7 run the same workloads on this kernel and on
//! the separation kernel and compare: number of mediation points, number of
//! policy exceptions (trusted-process ★-violations) required, and the size
//! of the mechanism.

use sep_obs::{ObsEvent, Recorder};
use sep_policy::blp::{AccessMode, BlpEngine, ObjectId, SubjectId};
use sep_policy::error::PolicyError;
use sep_policy::level::SecurityLevel;
use std::collections::BTreeMap;

/// Identifies a process on the conventional kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(pub usize);

/// What a process asks for at the end of a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConvAction {
    /// Keep running.
    Continue,
    /// Yield the processor.
    Yield,
    /// Exit.
    Exit,
}

/// The system-call interface of the conventional kernel. Every call is a
/// mediation point: the kernel consults the policy engine before touching
/// the object store.
pub trait ConvIo {
    /// This process's id.
    fn pid(&self) -> ProcessId;

    /// Creates an object at a level (must dominate the caller's current
    /// level, per the ★-property — creation writes the namespace).
    fn create(&mut self, name: &str, level: SecurityLevel) -> Result<ObjectId, PolicyError>;

    /// Reads an object's contents.
    fn read(&mut self, obj: ObjectId) -> Result<Vec<u8>, PolicyError>;

    /// Overwrites an object's contents.
    fn write(&mut self, obj: ObjectId, data: &[u8]) -> Result<(), PolicyError>;

    /// Appends to an object.
    fn append(&mut self, obj: ObjectId, data: &[u8]) -> Result<(), PolicyError>;

    /// Deletes an object (a write to it and to the namespace).
    fn delete(&mut self, obj: ObjectId) -> Result<(), PolicyError>;

    /// Lists the objects whose classification the caller's clearance
    /// dominates (the ss-property applied to the namespace).
    fn list(&mut self) -> Vec<(ObjectId, String, SecurityLevel)>;

    /// Lowers (or re-raises) the caller's current level.
    fn set_level(&mut self, level: SecurityLevel) -> Result<(), PolicyError>;
}

/// A process hosted on the conventional kernel.
pub trait ConvProcess {
    /// Display name.
    fn name(&self) -> &str;

    /// Executes one step against the kernel interface.
    fn step(&mut self, io: &mut dyn ConvIo) -> ConvAction;
}

/// Mediation statistics — the conventional kernel's cost, for E1/E7.
#[derive(Debug, Clone, Default)]
pub struct ConvStats {
    /// System calls serviced.
    pub syscalls: u64,
    /// Policy decisions evaluated (every access check).
    pub mediations: u64,
    /// Requests denied by policy.
    pub denials: u64,
    /// ★-property exemptions exercised by trusted processes (the audit
    /// trail the paper says nobody knows how to verify).
    pub trust_exemptions: u64,
}

struct ProcessRecord {
    subject: SubjectId,
    process: Box<dyn ConvProcess>,
    exited: bool,
}

/// The conventional kernel: policy engine + object store + processes.
pub struct ConventionalKernel {
    engine: BlpEngine,
    contents: BTreeMap<ObjectId, Vec<u8>>,
    names: BTreeMap<ObjectId, String>,
    processes: Vec<ProcessRecord>,
    current: usize,
    /// Mediation statistics.
    pub stats: ConvStats,
    /// Observability recorder; every policy decision is a
    /// [`ObsEvent::PolicyMediation`]. The separation kernel's recorder
    /// stays at zero mediations — that contrast is the paper's point.
    pub obs: Recorder,
}

impl Default for ConventionalKernel {
    fn default() -> Self {
        ConventionalKernel::new()
    }
}

impl ConventionalKernel {
    /// An empty system.
    pub fn new() -> ConventionalKernel {
        ConventionalKernel {
            engine: BlpEngine::new(),
            contents: BTreeMap::new(),
            names: BTreeMap::new(),
            processes: Vec::new(),
            current: 0,
            stats: ConvStats::default(),
            obs: Recorder::disabled(),
        }
    }

    /// Registers a process with a clearance; `trusted` processes may
    /// violate the ★-property (and are audited when they do).
    pub fn add_process(
        &mut self,
        process: Box<dyn ConvProcess>,
        clearance: SecurityLevel,
        trusted: bool,
    ) -> ProcessId {
        let name = process.name().to_string();
        let subject = self.engine.add_subject(&name, clearance, trusted);
        self.obs.metrics.register_regime(self.processes.len(), name);
        self.processes.push(ProcessRecord {
            subject,
            process,
            exited: false,
        });
        ProcessId(self.processes.len() - 1)
    }

    /// Creates an object from outside (system generation), bypassing
    /// mediation.
    pub fn install_object(&mut self, name: &str, level: SecurityLevel, data: Vec<u8>) -> ObjectId {
        let id = self.engine.add_object(name, level);
        self.contents.insert(id, data);
        self.names.insert(id, name.to_string());
        id
    }

    /// Host-side read of an object's contents (no mediation; for tests).
    pub fn host_contents(&self, obj: ObjectId) -> Option<&[u8]> {
        self.contents.get(&obj).map(Vec::as_slice)
    }

    /// Host-side: does the object still exist?
    pub fn host_exists(&self, obj: ObjectId) -> bool {
        self.contents.contains_key(&obj)
    }

    /// Number of live objects.
    pub fn object_count(&self) -> usize {
        self.contents.len()
    }

    /// Total ★-property exemptions recorded by the policy engine.
    pub fn trust_exercise_count(&self) -> usize {
        self.engine.trust_exercise_count()
    }

    /// Runs one scheduling round: each live process steps once.
    pub fn run_round(&mut self) {
        for idx in 0..self.processes.len() {
            if self.processes[idx].exited {
                continue;
            }
            self.current = idx;
            let mut process =
                std::mem::replace(&mut self.processes[idx].process, Box::new(NullProcess));
            let action = {
                let mut io = Mediator { kernel: self, idx };
                process.step(&mut io)
            };
            self.processes[idx].process = process;
            if action == ConvAction::Exit {
                self.processes[idx].exited = true;
            }
        }
    }

    /// Runs `n` rounds.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.run_round();
        }
    }

    /// True when every process has exited.
    pub fn all_exited(&self) -> bool {
        self.processes.iter().all(|p| p.exited)
    }

    /// Mediated access shared by the syscall paths: checks the policy (with
    /// the trusted-process escape hatch) and bumps the counters.
    /// Observability bookkeeping for one policy decision. Timestamped by
    /// the mediation ordinal — the conventional kernel has no instruction
    /// counter, but the ordinal is just as deterministic.
    fn note_mediation(&mut self, subject: usize, allowed: bool) {
        self.obs.metrics.totals.policy_mediations += 1;
        let ts = self.stats.mediations;
        self.obs.emit(
            ts,
            ObsEvent::PolicyMediation {
                subject: subject as u16,
                allowed,
            },
        );
    }

    fn mediate(
        &mut self,
        subject: SubjectId,
        obj: ObjectId,
        mode: AccessMode,
    ) -> Result<(), PolicyError> {
        self.stats.mediations += 1;
        // The discretionary matrix is permissive in this reproduction: the
        // experiments concern the mandatory policy, so every subject holds
        // every grant.
        self.engine.grant(subject, obj, mode)?;
        let before = self.engine.trust_exercise_count();
        match self.engine.request_access(subject, obj, mode) {
            Ok(()) => {
                let exercised = self.engine.trust_exercise_count() - before;
                self.stats.trust_exemptions += exercised as u64;
                self.engine.release_access(subject, obj, mode);
                self.note_mediation(self.current, true);
                Ok(())
            }
            Err(e) => {
                self.stats.denials += 1;
                self.note_mediation(self.current, false);
                Err(e)
            }
        }
    }
}

/// Placeholder swapped in while a process is stepped.
struct NullProcess;

impl ConvProcess for NullProcess {
    fn name(&self) -> &str {
        "null"
    }

    fn step(&mut self, _io: &mut dyn ConvIo) -> ConvAction {
        ConvAction::Exit
    }
}

struct Mediator<'a> {
    kernel: &'a mut ConventionalKernel,
    idx: usize,
}

impl Mediator<'_> {
    fn subject(&self) -> SubjectId {
        self.kernel.processes[self.idx].subject
    }
}

impl ConvIo for Mediator<'_> {
    fn pid(&self) -> ProcessId {
        ProcessId(self.idx)
    }

    fn create(&mut self, name: &str, level: SecurityLevel) -> Result<ObjectId, PolicyError> {
        self.kernel.stats.syscalls += 1;
        self.kernel.stats.mediations += 1;
        // ★-property on the namespace: the new object's level must dominate
        // the creator's current level.
        let subject = self.subject();
        let current = self.kernel.engine.subject(subject)?.current;
        let trusted = self.kernel.engine.subject(subject)?.trusted;
        if !level.dominates(&current) {
            if trusted {
                self.kernel.stats.trust_exemptions += 1;
            } else {
                self.kernel.stats.denials += 1;
                self.kernel.note_mediation(self.idx, false);
                return Err(PolicyError::StarPropertyViolation {
                    subject: self.kernel.engine.subject(subject)?.name.clone(),
                    object: name.to_string(),
                });
            }
        }
        self.kernel.note_mediation(self.idx, true);
        let id = self.kernel.engine.add_object(name, level);
        self.kernel.contents.insert(id, Vec::new());
        self.kernel.names.insert(id, name.to_string());
        Ok(id)
    }

    fn read(&mut self, obj: ObjectId) -> Result<Vec<u8>, PolicyError> {
        self.kernel.stats.syscalls += 1;
        let subject = self.subject();
        self.kernel.mediate(subject, obj, AccessMode::Read)?;
        Ok(self.kernel.contents.get(&obj).cloned().unwrap_or_default())
    }

    fn write(&mut self, obj: ObjectId, data: &[u8]) -> Result<(), PolicyError> {
        self.kernel.stats.syscalls += 1;
        let subject = self.subject();
        self.kernel.mediate(subject, obj, AccessMode::Write)?;
        self.kernel.contents.insert(obj, data.to_vec());
        Ok(())
    }

    fn append(&mut self, obj: ObjectId, data: &[u8]) -> Result<(), PolicyError> {
        self.kernel.stats.syscalls += 1;
        let subject = self.subject();
        self.kernel.mediate(subject, obj, AccessMode::Append)?;
        self.kernel
            .contents
            .get_mut(&obj)
            .ok_or_else(|| PolicyError::UnknownObject(format!("{obj:?}")))?
            .extend_from_slice(data);
        Ok(())
    }

    fn delete(&mut self, obj: ObjectId) -> Result<(), PolicyError> {
        self.kernel.stats.syscalls += 1;
        let subject = self.subject();
        // Deletion alters the object: ★-property applies — this is exactly
        // the paper's spooler problem.
        self.kernel.mediate(subject, obj, AccessMode::Write)?;
        self.kernel.engine.remove_object(obj)?;
        self.kernel.contents.remove(&obj);
        self.kernel.names.remove(&obj);
        Ok(())
    }

    fn list(&mut self) -> Vec<(ObjectId, String, SecurityLevel)> {
        self.kernel.stats.syscalls += 1;
        let subject = self.subject();
        let clearance = match self.kernel.engine.subject(subject) {
            Ok(s) => s.clearance,
            Err(_) => return Vec::new(),
        };
        let mut out = Vec::new();
        let mut decisions = Vec::new();
        for (&id, name) in &self.kernel.names {
            self.kernel.stats.mediations += 1;
            let mut visible = false;
            if let Ok(o) = self.kernel.engine.object(id) {
                if clearance.dominates(&o.level) {
                    visible = true;
                    out.push((id, name.clone(), o.level));
                }
            }
            decisions.push(visible);
        }
        for visible in decisions {
            self.kernel.note_mediation(self.idx, visible);
        }
        out
    }

    fn set_level(&mut self, level: SecurityLevel) -> Result<(), PolicyError> {
        self.kernel.stats.syscalls += 1;
        self.kernel.stats.mediations += 1;
        let subject = self.subject();
        let result = self.kernel.engine.set_current_level(subject, level);
        self.kernel.note_mediation(self.idx, result.is_ok());
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sep_policy::level::Classification;

    fn secret() -> SecurityLevel {
        SecurityLevel::plain(Classification::Secret)
    }

    fn unclass() -> SecurityLevel {
        SecurityLevel::plain(Classification::Unclassified)
    }

    /// One scripted operation.
    type Op = Box<dyn FnMut(&mut dyn ConvIo) + 'static>;

    /// A process driven by a scripted list of operations.
    struct Script {
        name: String,
        ops: Vec<Op>,
        pos: usize,
    }

    impl Script {
        fn new(name: &str) -> Script {
            Script {
                name: name.to_string(),
                ops: Vec::new(),
                pos: 0,
            }
        }

        fn then(mut self, f: impl FnMut(&mut dyn ConvIo) + 'static) -> Script {
            self.ops.push(Box::new(f));
            self
        }
    }

    impl ConvProcess for Script {
        fn name(&self) -> &str {
            &self.name
        }

        fn step(&mut self, io: &mut dyn ConvIo) -> ConvAction {
            if self.pos >= self.ops.len() {
                return ConvAction::Exit;
            }
            (self.ops[self.pos])(io);
            self.pos += 1;
            ConvAction::Continue
        }
    }

    #[test]
    fn read_up_denied_write_down_denied() {
        let mut k = ConventionalKernel::new();
        let hi = k.install_object("hi", secret(), b"top".to_vec());
        let lo = k.install_object("lo", unclass(), b"pub".to_vec());
        let confidential = SecurityLevel::plain(Classification::Confidential);
        let p = Script::new("user").then(move |io| {
            assert!(io.read(hi).is_err()); // read up: ss-property
            assert_eq!(io.read(lo).unwrap(), b"pub");
            assert!(io.write(lo, b"x").is_err()); // write down: *-property
            assert!(io.append(hi, b"up").is_ok()); // blind append up is legal
        });
        k.add_process(Box::new(p), confidential, false);
        k.run(2);
        assert!(k.stats.denials >= 2);
        assert_eq!(k.stats.trust_exemptions, 0);
    }

    #[test]
    fn untrusted_spooler_cannot_delete_low_spool_files() {
        let mut k = ConventionalKernel::new();
        let spool = k.install_object("job1", unclass(), b"print me".to_vec());
        let p = Script::new("spooler").then(move |io| {
            // Reading the low spool file is fine; deleting it is a write
            // down — denied.
            assert!(io.read(spool).is_ok());
            assert!(io.delete(spool).is_err());
        });
        k.add_process(Box::new(p), secret(), false);
        k.run(2);
        assert!(k.host_exists(spool), "file survives: spool files pile up");
    }

    #[test]
    fn trusted_spooler_deletes_but_is_audited() {
        let mut k = ConventionalKernel::new();
        let spool = k.install_object("job1", unclass(), b"print me".to_vec());
        let p = Script::new("spooler").then(move |io| {
            assert!(io.read(spool).is_ok());
            assert!(io.delete(spool).is_ok());
        });
        k.add_process(Box::new(p), secret(), true);
        k.run(2);
        assert!(!k.host_exists(spool));
        assert!(k.stats.trust_exemptions >= 1);
    }

    #[test]
    fn list_filters_by_clearance() {
        let mut k = ConventionalKernel::new();
        k.install_object("hi", secret(), Vec::new());
        k.install_object("lo", unclass(), Vec::new());
        let seen = std::rc::Rc::new(std::cell::RefCell::new(0usize));
        let seen2 = seen.clone();
        let p = Script::new("low-user").then(move |io| {
            *seen2.borrow_mut() = io.list().len();
        });
        k.add_process(Box::new(p), unclass(), false);
        k.run(2);
        assert_eq!(*seen.borrow(), 1);
    }

    #[test]
    fn set_level_enables_legal_write_down_pattern() {
        let mut k = ConventionalKernel::new();
        let lo = k.install_object("lo", unclass(), Vec::new());
        let p = Script::new("careful").then(move |io| {
            assert!(io.set_level(unclass()).is_ok());
            assert!(io.write(lo, b"ok").is_ok());
        });
        k.add_process(Box::new(p), secret(), false);
        k.run(2);
        assert_eq!(k.host_contents(lo).unwrap(), b"ok");
        assert_eq!(k.stats.trust_exemptions, 0);
    }

    #[test]
    fn mediation_counts_accumulate() {
        let mut k = ConventionalKernel::new();
        let lo = k.install_object("lo", unclass(), Vec::new());
        let p = Script::new("reader")
            .then(move |io| {
                let _ = io.read(lo);
            })
            .then(move |io| {
                let _ = io.read(lo);
            });
        k.add_process(Box::new(p), secret(), false);
        k.run(3);
        assert_eq!(k.stats.syscalls, 2);
        assert_eq!(k.stats.mediations, 2);
        assert!(k.all_exited());
    }
}
