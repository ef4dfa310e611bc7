//! The separation kernel proper.
//!
//! The kernel is the machine's privileged mode, written in Rust (see
//! DESIGN.md, substitution 2). Its entire behaviour is:
//!
//! * **boot** — carve fixed partitions, place each regime's devices in a
//!   private I/O window, load programs, program the MMU;
//! * **consume phase** — advance device time and field interrupts into the
//!   owning regime's pending queue (the formal model's INPUT stage);
//! * **execute phase** — deliver one pending interrupt to the current
//!   regime, or let it execute one instruction, handling its traps: SWAP
//!   (voluntary yield, round-robin), SEND/RECV/POLL/MYID (channels), WAIT,
//!   and faults.
//!
//! That is the whole kernel — "readers will appreciate that, in comparison
//! with a conventional security kernel, the SUE is indeed small and simple."
//! Experiment E1 counts exactly how small.

use crate::channel::{Channel, ChannelStatus, MAX_MSG};
use crate::config::{DeviceSpec, KernelConfig, Mutation, ProgramSpec};
use crate::regime::{
    DeviceBinding, FaultCause, FaultPolicy, NativeAction, RegimeIo, RegimeRecord, RegimeStatus,
    SaveArea, DEV_WINDOW, PARTITION_SIZE, VEC_BASE,
};
use crate::sched::Scheduler;
use sep_machine::asm::{assemble, AsmError};
use sep_machine::dev::clock::LineClock;
use sep_machine::dev::crypto::CryptoUnit;
use sep_machine::dev::dma::DmaDisk;
use sep_machine::dev::printer::LinePrinter;
use sep_machine::dev::serial::SerialLine;
use sep_machine::dev::InterruptRequest;
use sep_machine::exec::{Event, Machine, Trap};
use sep_machine::mem::IO_BASE;
use sep_machine::mmu::{Access, SegmentDescriptor};
use sep_machine::psw::{Mode, Psw};
use sep_machine::types::{PhysAddr, Word};
use sep_obs::ObsEvent;

/// Physical base of the first partition (below it is reserved for nothing —
/// the kernel itself lives outside the machine).
const FIRST_PARTITION: PhysAddr = 0o40000;

/// Bytes of I/O page reserved per regime for its devices.
const DEV_WINDOW_BYTES: u32 = 1024;

/// Maximum number of regimes (bounded by available partitions).
pub const MAX_REGIMES: usize = 16;

/// Maximum regimes with devices (each needs a window in the 8 KiB I/O
/// page).
pub const MAX_DEVICE_WINDOWS: usize = 8;

/// Boot-time errors.
#[derive(Debug)]
pub enum KernelError {
    /// The configuration names no regimes.
    NoRegimes,
    /// More regimes than [`MAX_REGIMES`].
    TooManyRegimes(usize),
    /// A regime's assembly failed.
    Assembly {
        /// The regime.
        regime: String,
        /// The assembler error.
        error: AsmError,
    },
    /// A program exceeds the partition.
    ProgramTooLarge {
        /// The regime.
        regime: String,
    },
    /// A DMA device was configured while DMA is excluded — the SUE's
    /// "ruthless approach", enforced at generation time.
    DmaExcluded {
        /// The regime.
        regime: String,
    },
    /// A regime's devices exceed its I/O window.
    DeviceWindowOverflow {
        /// The regime.
        regime: String,
    },
    /// A channel references a regime that does not exist.
    BadChannelEndpoint {
        /// Index in the channel list.
        channel: usize,
    },
    /// A static-cyclic schedule table is empty or names a regime that does
    /// not exist.
    BadSchedTable,
}

impl core::fmt::Display for KernelError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            KernelError::NoRegimes => write!(f, "no regimes configured"),
            KernelError::TooManyRegimes(n) => {
                write!(f, "{n} regimes exceeds the maximum of {MAX_REGIMES}")
            }
            KernelError::Assembly { regime, error } => write!(f, "regime {regime}: {error}"),
            KernelError::ProgramTooLarge { regime } => {
                write!(f, "regime {regime}: program exceeds partition")
            }
            KernelError::DmaExcluded { regime } => {
                write!(
                    f,
                    "regime {regime}: DMA devices are excluded from the system"
                )
            }
            KernelError::DeviceWindowOverflow { regime } => {
                write!(f, "regime {regime}: devices exceed the I/O window")
            }
            KernelError::BadChannelEndpoint { channel } => {
                write!(f, "channel {channel}: endpoint out of range")
            }
            KernelError::BadSchedTable => {
                write!(f, "static-cyclic table is empty or names a missing regime")
            }
        }
    }
}

impl std::error::Error for KernelError {}

/// What one kernel step did (for host observation and statistics; regimes
/// cannot see these).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelEvent {
    /// The current regime executed one instruction.
    Executed,
    /// A native regime took one step.
    NativeStep,
    /// Control passed between regimes.
    Swapped {
        /// Outgoing regime.
        from: usize,
        /// Incoming regime.
        to: usize,
    },
    /// A pending interrupt was delivered into the regime's handler.
    DeliveredInterrupt {
        /// The receiving regime.
        regime: usize,
        /// The device's vector.
        vector: Word,
    },
    /// A pending interrupt was discarded: the owner's vector slot holds no
    /// handler (PC 0), so the kernel has nowhere to put it.
    DiscardedInterrupt {
        /// The regime whose vector slot was empty.
        regime: usize,
        /// The device's vector.
        vector: Word,
    },
    /// A kernel call was serviced.
    Syscall {
        /// The calling regime.
        regime: usize,
        /// The TRAP operand.
        trap: u8,
    },
    /// A regime faulted and was stopped (pending its fault policy).
    Fault {
        /// The faulting regime.
        regime: usize,
        /// Why it faulted.
        cause: FaultCause,
    },
    /// A faulted regime was re-imaged from its boot image and resumed
    /// (its [`FaultPolicy::Restart`] budget allowed it).
    Restarted {
        /// The restarted regime.
        regime: usize,
    },
    /// No regime is runnable; device time still advances.
    Idle,
    /// Every regime is permanently stopped.
    AllStopped,
    /// A DMA attempt was refused.
    DmaBlocked {
        /// The offending device index.
        device: usize,
    },
}

/// Kernel statistics — the measurable footprint for experiment E1.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Total steps taken.
    pub steps: u64,
    /// User instructions retired.
    pub instructions: u64,
    /// Context switches.
    pub swaps: u64,
    /// Kernel calls serviced, by trap number (0–4).
    pub syscalls: [u64; 5],
    /// Messages accepted onto channels.
    pub messages_sent: u64,
    /// Message bytes copied between partitions.
    pub bytes_copied: u64,
    /// Interrupts fielded from devices.
    pub interrupts_fielded: u64,
    /// Interrupts delivered to regimes.
    pub interrupts_delivered: u64,
    /// Interrupts discarded (fielded, but the owner had no handler).
    pub interrupts_discarded: u64,
    /// Regime faults.
    pub faults: u64,
    /// Idle steps.
    pub idle_steps: u64,
}

/// The separation kernel plus the machine it drives.
#[derive(Debug, Clone)]
pub struct SeparationKernel {
    /// The machine.
    pub machine: Machine,
    /// Per-regime records.
    pub regimes: Vec<RegimeRecord>,
    /// Channel states.
    pub channels: Vec<Channel>,
    /// Statistics.
    pub stats: KernelStats,
    current: usize,
    mutation: Mutation,
    /// The scheduling policy (built from `KernelConfig::sched`).
    sched: Box<dyn Scheduler>,
    /// Steps left in the current slice (0 under sliceless policies).
    quantum_left: u64,
    /// Remaining idle padding of an early-yielded fixed slot.
    slot_idle_left: u64,
    /// machine device index → (regime, slot base of that device).
    device_owner: Vec<(usize, usize)>,
}

impl SeparationKernel {
    /// Generates the system: builds the machine, places devices, loads
    /// programs, and loads regime 0's context.
    ///
    /// # Examples
    ///
    /// ```
    /// use sep_kernel::config::{KernelConfig, RegimeSpec};
    /// use sep_kernel::kernel::SeparationKernel;
    ///
    /// let cfg = KernelConfig::new(vec![
    ///     RegimeSpec::assembly("a", "start: INC R1\n TRAP 0\n BR start"),
    ///     RegimeSpec::assembly("b", "start: INC R2\n TRAP 0\n BR start"),
    /// ]);
    /// let mut kernel = SeparationKernel::boot(cfg).unwrap();
    /// kernel.run(100);
    /// assert!(kernel.stats.swaps > 10);
    /// ```
    pub fn boot(config: KernelConfig) -> Result<SeparationKernel, KernelError> {
        if config.regimes.is_empty() {
            return Err(KernelError::NoRegimes);
        }
        if config.regimes.len() > MAX_REGIMES {
            return Err(KernelError::TooManyRegimes(config.regimes.len()));
        }
        // Channel endpoints are logical ids. In a cut configuration an
        // endpoint may be absent (a stub end whose peer lives in the full
        // system); uncut channels need both endpoints present.
        let logical_ids: Vec<usize> = config
            .regimes
            .iter()
            .enumerate()
            .map(|(i, r)| r.logical.unwrap_or(i))
            .collect();
        for (i, ch) in config.channels.iter().enumerate() {
            let from_ok = logical_ids.contains(&ch.from);
            let to_ok = logical_ids.contains(&ch.to);
            let ok = if config.channels_cut {
                // Cut channels may have absent endpoints (they are inert
                // stubs in single-regime sub-configurations).
                ch.from != ch.to
            } else {
                from_ok && to_ok && ch.from != ch.to
            };
            if !ok {
                return Err(KernelError::BadChannelEndpoint { channel: i });
            }
        }

        let mut machine = Machine::new();
        machine.allow_dma = config.allow_dma;
        machine.mmu.enabled = true;
        let mut regimes = Vec::new();
        let mut device_owner = Vec::new();
        let mut vector_next: Word = 0o300;
        let mut windows_used: u32 = 0;

        for (i, spec) in config.regimes.iter().enumerate() {
            let partition_base = FIRST_PARTITION + (i as u32) * PARTITION_SIZE;
            assert!(partition_base + PARTITION_SIZE <= IO_BASE);

            // Place devices in this regime's private I/O window (windows
            // are allocated only to regimes that own devices).
            if !spec.devices.is_empty() && windows_used as usize >= MAX_DEVICE_WINDOWS {
                return Err(KernelError::DeviceWindowOverflow {
                    regime: spec.name.clone(),
                });
            }
            let window_base = IO_BASE + windows_used * DEV_WINDOW_BYTES;
            if !spec.devices.is_empty() {
                windows_used += 1;
            }
            let mut offset: u32 = 0;
            let mut bindings = Vec::new();
            for (slot_pos, d) in spec.devices.iter().enumerate() {
                let base = window_base + offset;
                let vector = vector_next;
                vector_next += 0o20;
                let boxed: Box<dyn sep_machine::dev::Device> = match d {
                    DeviceSpec::Serial => Box::new(SerialLine::new(
                        &format!("{}-tty{}", spec.name, slot_pos),
                        base,
                        vector,
                        4,
                    )),
                    DeviceSpec::SerialRx { capacity } => Box::new(
                        SerialLine::new(&format!("{}-tty{}", spec.name, slot_pos), base, vector, 4)
                            .with_rx_capacity(*capacity),
                    ),
                    DeviceSpec::Clock { period } => Box::new(LineClock::new(base, vector, *period)),
                    DeviceSpec::Printer => Box::new(LinePrinter::new(base, vector)),
                    DeviceSpec::Crypto => Box::new(CryptoUnit::new(base, vector)),
                    DeviceSpec::DmaDisk => {
                        if !config.allow_dma {
                            return Err(KernelError::DmaExcluded {
                                regime: spec.name.clone(),
                            });
                        }
                        Box::new(DmaDisk::new(base, vector))
                    }
                };
                let reg_len = boxed.reg_len();
                // 64-byte alignment so the MMU could in principle trim.
                offset += reg_len.div_ceil(64) * 64;
                if offset > DEV_WINDOW_BYTES {
                    return Err(KernelError::DeviceWindowOverflow {
                        regime: spec.name.clone(),
                    });
                }
                let machine_index = machine.devices.attach(boxed);
                debug_assert_eq!(machine_index, device_owner.len());
                device_owner.push((i, 2 * slot_pos));
                bindings.push(DeviceBinding {
                    machine_index,
                    virtual_base: DEV_WINDOW + (base - window_base) as Word,
                    reg_len,
                    vector,
                });
            }

            // Load the program.
            let mut native = None;
            match &spec.program {
                ProgramSpec::Assembly(src) => {
                    let prog = assemble(src).map_err(|error| KernelError::Assembly {
                        regime: spec.name.clone(),
                        error,
                    })?;
                    if prog.byte_len() as u32 > PARTITION_SIZE {
                        return Err(KernelError::ProgramTooLarge {
                            regime: spec.name.clone(),
                        });
                    }
                    machine.mem.load_words(partition_base, &prog.words);
                }
                ProgramSpec::Words(words) => {
                    if (words.len() * 2) as u32 > PARTITION_SIZE {
                        return Err(KernelError::ProgramTooLarge {
                            regime: spec.name.clone(),
                        });
                    }
                    machine.mem.load_words(partition_base, words);
                }
                ProgramSpec::Native(n) => native = Some(n.boxed_clone()),
            }

            // Snapshot the freshly-imaged partition: this is what a
            // `FaultPolicy::Restart` re-images from. Kept in an `Arc` so
            // cloning a kernel (the checker does this constantly) shares it.
            let boot_image =
                std::sync::Arc::new(machine.mem.range(partition_base, PARTITION_SIZE).to_vec());
            let native_boot = match spec.fault_policy {
                FaultPolicy::Restart { .. } => native.as_ref().map(|n| n.boxed_clone()),
                FaultPolicy::Halt => None,
            };

            regimes.push(RegimeRecord {
                name: spec.name.clone(),
                logical_id: spec.logical.unwrap_or(i),
                status: RegimeStatus::Ready,
                save: SaveArea::boot(),
                partition_base,
                window_base,
                devices: bindings,
                pending_irqs: Default::default(),
                native,
                fault_policy: spec.fault_policy,
                watchdog: spec.watchdog,
                boot_image,
                native_boot,
                restarts_used: 0,
                backoff_left: 0,
                instr_since_yield: 0,
            });
        }

        let channels = config
            .channels
            .iter()
            .map(|spec| Channel::new(*spec, config.channels_cut))
            .collect();

        if let crate::config::SchedPolicy::StaticCyclic { table } = &config.sched {
            if table.is_empty() || table.iter().any(|&r| r >= config.regimes.len()) {
                return Err(KernelError::BadSchedTable);
            }
        }
        let sched = config.sched.build();
        let quantum_left = sched.slice(0).unwrap_or(0);
        let mut kernel = SeparationKernel {
            machine,
            regimes,
            channels,
            stats: KernelStats::default(),
            current: 0,
            mutation: config.mutation,
            sched,
            quantum_left,
            slot_idle_left: 0,
            device_owner,
        };
        // Name the observability slots so reports read "red"/"black", not
        // "regime0"/"regime1"; the machine itself never learns regimes.
        for i in 0..kernel.regimes.len() {
            let name = kernel.regimes[i].name.clone();
            kernel.machine.obs.metrics.register_regime(i, &name);
        }
        for idx in 0..kernel.machine.devices.len() {
            // Every index below `len` was just attached; a hole here is a
            // kernel bug, and silently registering a nameless device would
            // only bury it (satellite of the fault PR: no defaulted
            // lookups on kernel paths).
            let name = kernel
                .machine
                .devices
                .get_mut(idx)
                .expect("attached device present")
                .name()
                .to_string();
            kernel.machine.obs.metrics.register_device(idx, &name);
        }
        if let Some(capacity) = config.trace {
            kernel.machine.obs.enable_tracing(capacity);
        }
        kernel.load_context(0);
        Ok(kernel)
    }

    /// The regime currently holding (or scheduled to hold) the CPU.
    pub fn current(&self) -> usize {
        self.current
    }

    /// The configured mutation (sabotage) of this kernel.
    pub fn mutation(&self) -> Mutation {
        self.mutation
    }

    /// The active scheduling policy.
    pub fn scheduler(&self) -> &dyn Scheduler {
        self.sched.as_ref()
    }

    /// One full kernel step: consume phase then execute phase.
    pub fn step(&mut self) -> KernelEvent {
        if let Some(ev) = self.consume_phase(&[]) {
            return ev;
        }
        self.exec_phase()
    }

    /// Runs `n` steps, returning the events.
    pub fn run(&mut self, n: u64) -> Vec<KernelEvent> {
        (0..n).map(|_| self.step()).collect()
    }

    /// Runs `n` steps without materializing an event list, returning the
    /// last step's event. The fleet's round driver batches each node's
    /// intra-round compute slice through here between planned-fault due
    /// points; [`SeparationKernel::run`] allocates a `Vec` per call, which
    /// this hot path avoids.
    pub fn step_n(&mut self, n: u64) -> Option<KernelEvent> {
        let mut last = None;
        for _ in 0..n {
            last = Some(self.step());
        }
        last
    }

    /// Runs until [`KernelEvent::AllStopped`] or the step bound.
    pub fn run_until_stopped(&mut self, max_steps: u64) -> bool {
        for _ in 0..max_steps {
            if self.step() == KernelEvent::AllStopped {
                return true;
            }
        }
        false
    }

    // ------------------------------------------------------------------
    // The consume phase (the model's INPUT stage).
    // ------------------------------------------------------------------

    /// Advances device time, injects host serial input (one optional byte
    /// per regime, to that regime's first serial line), and fields raised
    /// interrupts into the owning regimes' pending queues.
    pub fn consume_phase(&mut self, inputs: &[Option<u8>]) -> Option<KernelEvent> {
        self.stats.steps += 1;
        if let Some(Event::DmaBlocked { device }) = self.machine.tick_phase() {
            return Some(KernelEvent::DmaBlocked { device });
        }
        for (r, input) in inputs.iter().enumerate() {
            if let Some(b) = input {
                self.host_send_serial(r, &[*b]);
            }
        }
        self.field_interrupts();
        None
    }

    /// Fields every raised device interrupt: acknowledge the device, queue
    /// the request for the owning regime, and wake it if it was waiting.
    fn field_interrupts(&mut self) {
        while let Some((device, request)) = self.machine.devices.highest_pending(0) {
            if let Some(d) = self.machine.devices.get_mut(device) {
                d.acknowledge();
            }
            self.stats.interrupts_fielded += 1;
            let (owner, slot_base) = self.device_owner[device];
            let owner = match self.mutation {
                Mutation::MisrouteInterrupts => (owner + 1) % self.regimes.len(),
                _ => owner,
            };
            let binding_vector =
                self.regimes[self.device_owner[device].0].devices[slot_base / 2].vector;
            let slot = slot_base + usize::from(request.vector != binding_vector);
            let obs = &mut self.machine.obs;
            obs.metrics.totals.interrupts_fielded += 1;
            obs.metrics.regime_mut(owner).interrupts_fielded += 1;
            obs.metrics.device_mut(device).interrupts += 1;
            let ts = self.machine.instructions;
            self.machine.obs.emit(
                ts,
                ObsEvent::InterruptFielded {
                    regime: owner as u16,
                    device: device as u16,
                    vector: request.vector,
                },
            );
            let rec = &mut self.regimes[owner];
            rec.pending_irqs.push_back((slot, request));
            if rec.status == RegimeStatus::Waiting {
                rec.status = RegimeStatus::Ready;
            }
        }
    }

    // ------------------------------------------------------------------
    // The execute phase.
    // ------------------------------------------------------------------

    /// Delivers one pending interrupt to the current regime, or executes
    /// one instruction (or native step) on its behalf.
    pub fn exec_phase(&mut self) -> KernelEvent {
        // Fixed-slot padding: burn the remainder of an early-yielded slot.
        if self.slot_idle_left > 0 {
            self.slot_idle_left -= 1;
            if self.slot_idle_left == 0 {
                self.quantum_left = 0; // the slot is over; switch next step
            }
            self.stats.idle_steps += 1;
            return KernelEvent::Idle;
        }
        // Fault recovery: a restart-pending regime scheduled into its slot
        // spends kernel steps backing off (whole slots) and then one step
        // being re-imaged. It consumes scheduler offers like any runnable
        // regime, which is what keeps restarts slot-aligned.
        if self.regimes[self.current].restart_pending() {
            return self.restart_step(self.current);
        }
        // Scheduling repair: if the current regime cannot run, pass control.
        if !self.regimes[self.current].status.runnable() {
            return match self.next_runnable() {
                Some(next) => {
                    let from = self.current;
                    self.switch_to(next);
                    KernelEvent::Swapped { from, to: next }
                }
                None => {
                    if self.regimes.iter().all(|r| {
                        !matches!(r.status, RegimeStatus::Ready | RegimeStatus::Waiting)
                            && !r.restart_pending()
                    }) {
                        KernelEvent::AllStopped
                    } else {
                        self.stats.idle_steps += 1;
                        KernelEvent::Idle
                    }
                }
            };
        }

        // Slice expiry (preemptive policies only; disabled in verified
        // configs).
        if let Some(q) = self.sched.slice(self.current) {
            if self.quantum_left == 0 {
                self.quantum_left = q;
                if let Some(next) = self.next_runnable() {
                    let from = self.current;
                    self.switch_to(next);
                    return KernelEvent::Swapped { from, to: next };
                }
            } else {
                self.quantum_left -= 1;
            }
        }

        let r = self.current;
        if self.regimes[r].native.is_none() {
            if let Some((slot, request)) = self.regimes[r].pending_irqs.pop_front() {
                return self.deliver_interrupt(r, slot, request);
            }
            let event = self.machine.exec_phase();
            self.handle_machine_event(r, event)
        } else {
            self.native_step(r)
        }
    }

    /// Vectors a pending interrupt into the regime's handler.
    fn deliver_interrupt(
        &mut self,
        r: usize,
        slot: usize,
        request: InterruptRequest,
    ) -> KernelEvent {
        let table = VEC_BASE + 4 * slot as Word;
        let base = self.regimes[r].partition_base;
        let handler = self.machine.mem.read_word(base + table as u32);
        let entry_cc = self.machine.mem.read_word(base + table as u32 + 2);
        let ts = self.machine.instructions;
        if handler == 0 {
            // Unhandled: discarded, as the kernel has nowhere to put it.
            // Counted apart from deliveries so E8 does not overcount.
            self.stats.interrupts_discarded += 1;
            let obs = &mut self.machine.obs;
            obs.metrics.totals.interrupts_discarded += 1;
            obs.metrics.regime_mut(r).interrupts_discarded += 1;
            self.machine.obs.emit(
                ts,
                ObsEvent::InterruptDiscarded {
                    regime: r as u16,
                    vector: request.vector,
                },
            );
            return KernelEvent::DiscardedInterrupt {
                regime: r,
                vector: request.vector,
            };
        }
        self.stats.interrupts_delivered += 1;
        let obs = &mut self.machine.obs;
        obs.metrics.totals.interrupts_delivered += 1;
        obs.metrics.regime_mut(r).interrupts_delivered += 1;
        self.machine.obs.emit(
            ts,
            ObsEvent::InterruptDelivered {
                regime: r as u16,
                vector: request.vector,
            },
        );
        // Hardware-style entry: push PSW (condition codes), push PC.
        let cc = self.machine.cpu.psw.cc_bits();
        let pc = self.machine.cpu.pc;
        let sp0 = self.machine.cpu.reg(6);
        let push = |k: &mut Machine, sp: Word, v: Word| -> Result<Word, Trap> {
            let sp = sp.wrapping_sub(2);
            k.write_word_v(sp, v)?;
            Ok(sp)
        };
        let result =
            push(&mut self.machine, sp0, cc).and_then(|sp| push(&mut self.machine, sp, pc));
        match result {
            Ok(sp) => {
                self.machine.cpu.set_reg(6, sp);
                self.machine.cpu.pc = handler;
                self.machine.cpu.psw.set_cc_bits(entry_cc);
                KernelEvent::DeliveredInterrupt {
                    regime: r,
                    vector: request.vector,
                }
            }
            Err(trap) => self.fault(r, trap),
        }
    }

    /// Handles the outcome of one machine instruction.
    fn handle_machine_event(&mut self, r: usize, event: Event) -> KernelEvent {
        match event {
            Event::Ran => {
                self.stats.instructions += 1;
                // Instruction-budget watchdog: a regime that retires too
                // many instructions without a voluntary yield is converted
                // into an ordinary fault (recoverable under its policy).
                // The counter only moves when a watchdog is armed, so
                // watchdog-free configurations keep their state spaces.
                if let Some(limit) = self.regimes[r].watchdog {
                    self.regimes[r].instr_since_yield += 1;
                    if self.regimes[r].instr_since_yield > limit {
                        return self.fault_with(r, FaultCause::Watchdog);
                    }
                }
                KernelEvent::Executed
            }
            Event::Wait => {
                self.regimes[r].instr_since_yield = 0;
                if self.regimes[r].pending_irqs.is_empty() {
                    self.regimes[r].status = RegimeStatus::Waiting;
                    if self.sched.padded() && self.quantum_left > 0 {
                        self.slot_idle_left = self.quantum_left;
                        return KernelEvent::Executed;
                    }
                    if let Some(next) = self.next_runnable() {
                        self.switch_to(next);
                        return KernelEvent::Swapped { from: r, to: next };
                    }
                }
                KernelEvent::Executed
            }
            Event::Trap(Trap::TrapInstr(n)) => self.syscall(r, n),
            Event::Trap(trap) => self.fault(r, trap),
            Event::Interrupt { device, request } => {
                // Defensive: latches are normally drained in the consume
                // phase before any instruction runs.
                if let Some(d) = self.machine.devices.get_mut(device) {
                    d.acknowledge();
                }
                let (owner, slot) = self.device_owner[device];
                self.regimes[owner].pending_irqs.push_back((slot, request));
                KernelEvent::Executed
            }
            Event::DmaBlocked { device } => KernelEvent::DmaBlocked { device },
        }
    }

    /// Stops a faulting regime (machine-trap cause) and passes control on.
    fn fault(&mut self, r: usize, trap: Trap) -> KernelEvent {
        self.fault_with(r, FaultCause::Trap(trap))
    }

    /// Stops a faulting regime for any cause. Idempotent on regimes that
    /// are already stopped (a fault injected into a Halted or Faulted
    /// regime changes nothing — which also keeps the verifier's fault
    /// operation from growing the state space unboundedly).
    fn fault_with(&mut self, r: usize, cause: FaultCause) -> KernelEvent {
        if !matches!(
            self.regimes[r].status,
            RegimeStatus::Ready | RegimeStatus::Waiting
        ) {
            return KernelEvent::Fault { regime: r, cause };
        }
        self.regimes[r].status = RegimeStatus::Faulted(cause);
        self.regimes[r].instr_since_yield = 0;
        if let FaultPolicy::Restart { backoff_slots, .. } = self.regimes[r].fault_policy {
            if self.regimes[r].restart_pending() {
                self.regimes[r].backoff_left = backoff_slots;
            }
        }
        self.stats.faults += 1;
        self.machine.obs.metrics.totals.faults += 1;
        self.machine.obs.metrics.regime_mut(r).faults += 1;
        let ts = self.machine.instructions;
        self.machine.obs.emit(
            ts,
            ObsEvent::Fault {
                regime: r as u16,
                cause: cause.class(),
            },
        );
        // Containment: if the *current* regime faulted, pass control on.
        // (A regime faulted from the host side keeps the CPU where it is.)
        if r == self.current {
            if let Some(next) = self.next_runnable() {
                if next != r {
                    self.switch_to(next);
                }
            }
        }
        KernelEvent::Fault { regime: r, cause }
    }

    /// One scheduler offer spent on a restart-pending regime: burn one
    /// backoff slot, or re-image the partition from its boot image and
    /// resume it. Only called with `r == self.current`.
    fn restart_step(&mut self, r: usize) -> KernelEvent {
        if self.regimes[r].backoff_left > 0 {
            // One whole scheduler offer per backoff slot: the decrement
            // happens only when the scheduler actually offers this regime
            // the CPU, then the slot is handed to whoever else is runnable.
            self.regimes[r].backoff_left -= 1;
            self.stats.idle_steps += 1;
            if let Some(next) = self.next_runnable() {
                if next != r {
                    self.switch_to(next);
                    return KernelEvent::Swapped { from: r, to: next };
                }
            }
            return KernelEvent::Idle;
        }
        // Re-image: the partition reverts to its boot bytes, the save area
        // to the boot context, and every queued interrupt is dropped — the
        // regime restarts from the same state it first booted in.
        let base = self.regimes[r].partition_base;
        let image = self.regimes[r].boot_image.clone();
        self.machine.mem.write_range(base, &image);
        let rec = &mut self.regimes[r];
        rec.save = SaveArea::boot();
        rec.pending_irqs.clear();
        rec.instr_since_yield = 0;
        rec.native = rec.native_boot.as_ref().map(|n| n.boxed_clone());
        rec.restarts_used += 1;
        rec.status = RegimeStatus::Ready;
        self.machine.obs.metrics.totals.restarts += 1;
        self.machine.obs.metrics.regime_mut(r).restarts += 1;
        let ts = self.machine.instructions;
        self.machine
            .obs
            .emit(ts, ObsEvent::Restart { regime: r as u16 });
        self.load_context(r);
        KernelEvent::Restarted { regime: r }
    }

    /// Injects a regime fault from outside the machine (fault-injection
    /// harness). Identical to the regime trapping, except for the cause.
    pub fn inject_fault(&mut self, r: usize) -> KernelEvent {
        self.fault_with(r, FaultCause::Injected)
    }

    /// Flips one bit of a regime's partition (host-side memory fault).
    /// The offset is reduced modulo the partition size, so any plan value
    /// lands inside the victim's own partition — injected faults must
    /// respect the same boundaries regimes do.
    pub fn inject_bit_flip(&mut self, r: usize, offset: u32, bit: u8) {
        let base = self.regimes[r].partition_base;
        let addr = base + offset % PARTITION_SIZE;
        let old = self.machine.mem.read_byte(addr);
        self.machine.mem.write_byte(addr, old ^ (1 << (bit % 8)));
    }

    /// Queues a spurious interrupt for a regime (device fault). Uses the
    /// regime's first device vector when it owns one, else a vector no
    /// binding claims — either way the request is mediated exactly like a
    /// real one, including waking a Waiting regime.
    pub fn inject_spurious_interrupt(&mut self, r: usize) {
        let (slot, vector) = match self.regimes[r].devices.first() {
            Some(b) => (0, b.vector),
            None => (0, 0o274),
        };
        let rec = &mut self.regimes[r];
        rec.pending_irqs.push_back((
            slot,
            InterruptRequest {
                vector,
                priority: 4,
            },
        ));
        if rec.status == RegimeStatus::Waiting {
            rec.status = RegimeStatus::Ready;
        }
    }

    /// Drops a regime's oldest pending interrupt (device fault: a lost
    /// interrupt). Returns whether anything was queued to lose.
    pub fn inject_drop_interrupt(&mut self, r: usize) -> bool {
        self.regimes[r].pending_irqs.pop_front().is_some()
    }

    /// Feeds a garbage byte into a regime's first serial line (line
    /// noise). A no-op for regimes without a serial device.
    pub fn inject_serial_error(&mut self, r: usize) {
        self.host_send_serial(r, &[0xFF]);
    }

    /// Syscall accounting shared by machine-code TRAPs and native SWAPs:
    /// the per-kind stat, the per-regime metric, and the trace event.
    fn note_syscall(&mut self, r: usize, n: u8) {
        if (n as usize) < self.stats.syscalls.len() {
            self.stats.syscalls[n as usize] += 1;
        }
        self.machine.obs.metrics.regime_mut(r).syscalls += 1;
        let ts = self.machine.instructions;
        self.machine.obs.emit(
            ts,
            ObsEvent::Syscall {
                regime: r as u16,
                number: n,
            },
        );
    }

    /// Services a TRAP-instruction kernel call.
    fn syscall(&mut self, r: usize, n: u8) -> KernelEvent {
        self.note_syscall(r, n);
        match n {
            0 => {
                // SWAP: voluntary yield.
                self.regimes[r].instr_since_yield = 0;
                if self.sched.padded() && self.quantum_left > 0 {
                    // Pad the slot: nobody gets the donated time.
                    self.slot_idle_left = self.quantum_left;
                    return KernelEvent::Syscall { regime: r, trap: 0 };
                }
                if let Some(next) = self.next_runnable() {
                    self.switch_to(next);
                    return KernelEvent::Swapped { from: r, to: next };
                }
                KernelEvent::Syscall { regime: r, trap: 0 }
            }
            1 => {
                // SEND: R0 = channel, R1 = buffer, R2 = length.
                let chan = self.machine.cpu.reg(0) as usize;
                let buf = self.machine.cpu.reg(1);
                let len = self.machine.cpu.reg(2) as usize;
                let status = self.do_send(r, chan, buf, len);
                self.machine.cpu.set_reg(0, status.code());
                KernelEvent::Syscall { regime: r, trap: 1 }
            }
            2 => {
                // RECV: R0 = channel, R1 = buffer, R2 = max length. A
                // message longer than the buffer is truncated to fit; the
                // tail is discarded (regimes size buffers to MAX_MSG to
                // avoid this).
                let chan = self.machine.cpu.reg(0) as usize;
                let buf = self.machine.cpu.reg(1);
                let maxlen = self.machine.cpu.reg(2) as usize;
                let (status, len) = self.do_recv(r, chan, buf, maxlen);
                self.machine.cpu.set_reg(0, status.code());
                self.machine.cpu.set_reg(2, len as Word);
                KernelEvent::Syscall { regime: r, trap: 2 }
            }
            3 => {
                // POLL: R0 = channel → queued count (0o177777 if not ours;
                // 0o177776 for a receiver whose drained channel will never
                // fill again because its sender is permanently down).
                let chan = self.machine.cpu.reg(0) as usize;
                let me = self.regimes[r].logical_id;
                let count = match self.channels.get(chan).and_then(|c| c.poll(me)) {
                    Some(0) if self.channels[chan].spec.to == me && self.sender_down(chan) => {
                        0o177776
                    }
                    Some(n) => n as Word,
                    None => 0o177777,
                };
                self.machine.cpu.set_reg(0, count);
                KernelEvent::Syscall { regime: r, trap: 3 }
            }
            4 => {
                // MYID.
                let id = self.regimes[r].logical_id as Word;
                self.machine.cpu.set_reg(0, id);
                KernelEvent::Syscall { regime: r, trap: 4 }
            }
            _ => self.fault(r, Trap::TrapInstr(n)),
        }
    }

    fn do_send(&mut self, r: usize, chan: usize, buf: Word, len: usize) -> ChannelStatus {
        if len > MAX_MSG {
            return ChannelStatus::Invalid;
        }
        let me = self.regimes[r].logical_id;
        let Some(channel) = self.channels.get(chan) else {
            return ChannelStatus::Invalid;
        };
        if channel.spec.from != me {
            return ChannelStatus::Invalid;
        }
        let mut bytes = Vec::with_capacity(len);
        for i in 0..len {
            match self.machine.read_byte_v(buf.wrapping_add(i as Word)) {
                Ok(b) => bytes.push(b),
                Err(_) => return ChannelStatus::Invalid,
            }
        }
        let status = self.channels[chan].send(me, bytes);
        if status == ChannelStatus::Ok {
            self.stats.messages_sent += 1;
            self.stats.bytes_copied += len as u64;
            self.note_channel_send(r, chan, len);
        }
        status
    }

    /// Observability bookkeeping for an accepted SEND.
    fn note_channel_send(&mut self, r: usize, chan: usize, len: usize) {
        let obs = &mut self.machine.obs;
        obs.metrics.totals.messages += 1;
        obs.metrics.totals.channel_bytes += len as u64;
        let counters = obs.metrics.regime_mut(r);
        counters.messages_sent += 1;
        counters.channel_bytes_sent += len as u64;
        let ts = self.machine.instructions;
        self.machine.obs.emit(
            ts,
            ObsEvent::ChannelSend {
                channel: chan as u16,
                from: r as u16,
                bytes: len as u32,
            },
        );
    }

    /// Observability bookkeeping for a delivered RECV.
    fn note_channel_recv(&mut self, r: usize, chan: usize, len: usize) {
        let obs = &mut self.machine.obs;
        obs.metrics.totals.channel_bytes += len as u64;
        let counters = obs.metrics.regime_mut(r);
        counters.messages_received += 1;
        counters.channel_bytes_received += len as u64;
        let ts = self.machine.instructions;
        self.machine.obs.emit(
            ts,
            ObsEvent::ChannelRecv {
                channel: chan as u16,
                to: r as u16,
                bytes: len as u32,
            },
        );
    }

    /// True when an uncut channel's sender is permanently stopped: Halted,
    /// or Faulted with no restart coming. Cut channels always report their
    /// peer alive (the stub endpoint has no sender to be down), which is
    /// what keeps verified single-regime sub-configurations unchanged.
    fn sender_down(&self, chan: usize) -> bool {
        let Some(ch) = self.channels.get(chan) else {
            return false;
        };
        if ch.cut {
            return false;
        }
        self.regimes
            .iter()
            .find(|r| r.logical_id == ch.spec.from)
            .is_some_and(|r| match r.status {
                RegimeStatus::Halted => true,
                RegimeStatus::Faulted(_) => !r.restart_pending(),
                RegimeStatus::Ready | RegimeStatus::Waiting => false,
            })
    }

    fn do_recv(
        &mut self,
        r: usize,
        chan: usize,
        buf: Word,
        maxlen: usize,
    ) -> (ChannelStatus, usize) {
        let me = self.regimes[r].logical_id;
        let Some(channel) = self.channels.get(chan) else {
            return (ChannelStatus::Invalid, 0);
        };
        // Stage the copy before consuming: the head message is only popped
        // once every byte has landed, so a bad buffer leaves the queue
        // intact and the message redeliverable.
        let msg = match channel.peek(me) {
            Ok(m) => {
                let mut m = m.to_vec();
                m.truncate(maxlen);
                m
            }
            // An empty queue whose sender is permanently down is reported
            // apart from a transiently empty one: nothing will ever arrive.
            Err(ChannelStatus::Empty) if self.sender_down(chan) => {
                return (ChannelStatus::PeerDown, 0)
            }
            Err(status) => return (status, 0),
        };
        for (i, b) in msg.iter().enumerate() {
            if self
                .machine
                .write_byte_v(buf.wrapping_add(i as Word), *b)
                .is_err()
            {
                return (ChannelStatus::Invalid, 0);
            }
        }
        self.channels[chan]
            .recv(me)
            .expect("peeked message still queued");
        self.stats.bytes_copied += msg.len() as u64;
        self.note_channel_recv(r, chan, msg.len());
        (ChannelStatus::Ok, msg.len())
    }

    // ------------------------------------------------------------------
    // Context switching.
    // ------------------------------------------------------------------

    /// The next regime to run after the current one, per the scheduling
    /// policy (possibly the current regime itself); `None` when nobody is
    /// Ready.
    fn next_runnable(&mut self) -> Option<usize> {
        // Restart-pending regimes stay schedulable: their backoff is
        // counted in scheduler offers, so they must keep receiving them.
        let runnable: Vec<bool> = self
            .regimes
            .iter()
            .map(|r| r.status.runnable() || r.restart_pending())
            .collect();
        self.sched
            .next(self.current, runnable.len(), &|i| runnable[i])
    }

    /// Saves the outgoing regime's context and loads the incoming one.
    fn switch_to(&mut self, next: usize) {
        let from = self.current;
        self.save_context(from);
        if self.mutation == Mutation::ScratchInPartition {
            // Sabotage: the kernel "borrows" a word of regime 0's partition.
            let scratch = self.regimes[0].partition_base + 0o76;
            self.machine
                .mem
                .write_word(scratch, self.regimes[from].save.pc);
        }
        self.load_context(next);
        self.stats.swaps += 1;
        let obs = &mut self.machine.obs;
        obs.metrics.totals.switches += 1;
        obs.metrics.regime_mut(from).switches_out += 1;
        obs.metrics.regime_mut(next).switches_in += 1;
        let ts = self.machine.instructions;
        self.machine.obs.emit(
            ts,
            ObsEvent::ContextSwitch {
                from: from as u16,
                to: next as u16,
            },
        );
        if let Some(q) = self.sched.slice(next) {
            self.quantum_left = q;
        }
        // Sticky-backpressure latch: a slot boundary of a channel's sender
        // is the only moment its Full/NotFull bit may change. Latching on
        // both edges (out of and into the sender's slot) keeps the bit
        // fresh for the sender while quantizing its view of the receiver's
        // drains to whole slots.
        let from_logical = self.regimes[from].logical_id;
        let next_logical = self.regimes[next].logical_id;
        for ch in &mut self.channels {
            if ch.spec.from == from_logical || ch.spec.from == next_logical {
                ch.latch();
            }
        }
    }

    /// Saves the CPU context into the regime's save area.
    fn save_context(&mut self, r: usize) {
        let rec = &mut self.regimes[r];
        rec.save.r = self.machine.cpu.r;
        rec.save.sp = self.machine.cpu.sp_of(Mode::User);
        rec.save.pc = self.machine.cpu.pc;
        rec.save.cc = self.machine.cpu.psw.cc_bits();
    }

    /// Loads a regime's context and programs the MMU for its partition.
    fn load_context(&mut self, r: usize) {
        self.current = r;
        self.machine.obs.set_context(r as u16);
        let save = self.regimes[r].save;
        let mut regs = save.r;
        if self.mutation == Mutation::SkipR3Save {
            // Sabotage: R3 is not restored; the incoming regime sees the
            // outgoing regime's live value.
            regs[3] = self.machine.cpu.r[3];
        }
        self.machine.cpu.r = regs;
        self.machine.cpu.set_sp_of(Mode::User, save.sp);
        self.machine.cpu.pc = save.pc;
        let mut psw = Psw::user();
        if self.mutation == Mutation::LeakConditionCodes {
            // Sabotage: condition codes carry over from the outgoing regime.
            psw.set_cc_bits(self.machine.cpu.psw.cc_bits());
        } else {
            psw.set_cc_bits(save.cc);
        }
        self.machine.cpu.psw = psw;
        self.program_user_mmu(r);
    }

    /// Programs the user address space for regime `r`: segment 0 =
    /// partition, segment 7 = device window (plus the `OverlapPartitions`
    /// sabotage segment when that mutation is active). Factored out of
    /// [`Self::load_context`] so content rotation can remap without
    /// touching the live CPU context.
    fn program_user_mmu(&mut self, r: usize) {
        self.machine.mmu.clear_mode(Mode::User);
        self.machine.mmu.set_segment(
            Mode::User,
            0,
            SegmentDescriptor::mapping(
                self.regimes[r].partition_base,
                PARTITION_SIZE,
                Access::ReadWrite,
            ),
        );
        let window_used: u32 = self.regimes[r]
            .devices
            .iter()
            .map(|b| b.reg_len.div_ceil(64) * 64)
            .sum();
        if window_used > 0 {
            self.machine.mmu.set_segment(
                Mode::User,
                7,
                SegmentDescriptor::mapping(
                    self.regimes[r].window_base,
                    window_used,
                    Access::ReadWrite,
                ),
            );
        }
        if self.mutation == Mutation::OverlapPartitions {
            // Sabotage: the next regime's partition is readable.
            let peer = (r + 1) % self.regimes.len();
            self.machine.mmu.set_segment(
                Mode::User,
                1,
                SegmentDescriptor::mapping(
                    self.regimes[peer].partition_base,
                    PARTITION_SIZE,
                    Access::ReadOnly,
                ),
            );
        }
    }

    // ------------------------------------------------------------------
    // Native regime execution.
    // ------------------------------------------------------------------

    fn native_step(&mut self, r: usize) -> KernelEvent {
        self.machine.obs.native_step();
        let mut native = self.regimes[r].native.take().expect("native regime");
        let action = {
            let mut io = KernelIo {
                kernel: self,
                regime: r,
            };
            native.step(&mut io)
        };
        self.regimes[r].native = Some(native);
        match action {
            NativeAction::Continue => KernelEvent::NativeStep,
            NativeAction::Swap => {
                self.regimes[r].instr_since_yield = 0;
                self.note_syscall(r, 0);
                if self.sched.padded() && self.quantum_left > 0 {
                    self.slot_idle_left = self.quantum_left;
                    return KernelEvent::NativeStep;
                }
                if let Some(next) = self.next_runnable() {
                    self.switch_to(next);
                    return KernelEvent::Swapped { from: r, to: next };
                }
                KernelEvent::NativeStep
            }
            NativeAction::Halt => {
                self.regimes[r].status = RegimeStatus::Halted;
                if let Some(next) = self.next_runnable() {
                    self.switch_to(next);
                }
                KernelEvent::NativeStep
            }
        }
    }

    // ------------------------------------------------------------------
    // Host access (the world outside the box).
    // ------------------------------------------------------------------

    /// Sends bytes into a regime's first serial line (host side).
    pub fn host_send_serial(&mut self, regime: usize, bytes: &[u8]) {
        if let Some(idx) = self.first_serial(regime) {
            if let Some(tty) = self.machine.devices.downcast_mut::<SerialLine>(idx) {
                tty.host_send(bytes);
            }
        }
    }

    /// Takes everything a regime's first serial line has transmitted.
    pub fn host_take_serial_output(&mut self, regime: usize) -> Vec<u8> {
        self.first_serial(regime)
            .and_then(|idx| {
                self.machine
                    .devices
                    .downcast_mut::<SerialLine>(idx)
                    .map(SerialLine::host_take_output)
            })
            .unwrap_or_default()
    }

    /// The machine device index of a regime's device `slot_pos` (its
    /// position in the regime's device list).
    pub fn device_index(&self, regime: usize, slot_pos: usize) -> Option<usize> {
        self.regimes
            .get(regime)?
            .devices
            .get(slot_pos)
            .map(|b| b.machine_index)
    }

    fn first_serial(&mut self, regime: usize) -> Option<usize> {
        let indices: Vec<usize> = self
            .regimes
            .get(regime)?
            .devices
            .iter()
            .map(|b| b.machine_index)
            .collect();
        indices.into_iter().find(|&idx| {
            self.machine
                .devices
                .downcast_mut::<SerialLine>(idx)
                .is_some()
        })
    }

    /// Rotates the *movable* per-regime contents `k` slots forward: slot
    /// `i`'s program state (status, save area, restart accounting, pending
    /// interrupts, partition bytes, device state) moves to slot
    /// `(i + k) % n`. Slot identity — name, logical id, partition base,
    /// device bindings, boot image, fault policy — stays put: the rotation
    /// permutes regime *contents* across the fixed slot structure, which is
    /// exactly the symmetry the canonical fingerprint quotients by.
    ///
    /// The running regime's live CPU context is untouched (that regime
    /// simply now occupies slot `(current + k) % n`), including its save
    /// area's possibly-stale bytes; only the MMU is reprogrammed so virtual
    /// addresses follow the contents to the new partition. Device state
    /// moves via [`Device::snapshot`]/[`Device::restore`] between the
    /// corresponding (identically-shaped) slots.
    ///
    /// Callers are responsible for only rotating configurations where the
    /// rotation is an automorphism (see `KernelSystem::valid_rotations` in
    /// `verify`); the helper itself just permutes.
    pub fn rotate_regime_contents(&mut self, k: usize) {
        let n = self.regimes.len();
        if n == 0 || k.is_multiple_of(n) {
            return;
        }
        let k = k % n;
        // Capture movable record state and partition bytes of every slot.
        // Pending interrupts are captured with slot-relative vector
        // *offsets* (vector − the owning device's base vector): absolute
        // vectors are slot identity and must be re-derived at the
        // destination slot.
        let movable: Vec<_> = self
            .regimes
            .iter()
            .map(|rec| {
                let pending: Vec<(usize, Word, u8)> = rec
                    .pending_irqs
                    .iter()
                    .map(|(slot, req)| {
                        let base = rec.devices[*slot].vector;
                        (*slot, req.vector - base, req.priority)
                    })
                    .collect();
                (
                    rec.status,
                    rec.save,
                    rec.restarts_used,
                    rec.backoff_left,
                    rec.instr_since_yield,
                    pending,
                )
            })
            .collect();
        let partitions: Vec<Vec<u8>> = self
            .regimes
            .iter()
            .map(|rec| {
                self.machine
                    .mem
                    .range(rec.partition_base, PARTITION_SIZE)
                    .to_vec()
            })
            .collect();
        let device_states: Vec<Vec<Vec<Word>>> = self
            .regimes
            .iter()
            .map(|rec| {
                rec.devices
                    .iter()
                    .map(|b| {
                        self.machine
                            .devices
                            .get(b.machine_index)
                            .expect("bound device present")
                            .snapshot()
                    })
                    .collect()
            })
            .collect();
        for i in 0..n {
            let j = (i + k) % n;
            let (status, save, restarts_used, backoff_left, instr_since_yield, pending_irqs) =
                movable[i].clone();
            let base = self.regimes[j].partition_base;
            self.machine.mem.write_range(base, &partitions[i]);
            let dests: Vec<usize> = self.regimes[j]
                .devices
                .iter()
                .map(|b| b.machine_index)
                .collect();
            assert_eq!(
                dests.len(),
                device_states[i].len(),
                "rotation requires identically-shaped device lists"
            );
            for (dev_idx, snap) in dests.into_iter().zip(&device_states[i]) {
                self.machine
                    .devices
                    .get_mut(dev_idx)
                    .expect("bound device present")
                    .restore(snap);
            }
            let rec = &mut self.regimes[j];
            rec.status = status;
            rec.save = save;
            rec.restarts_used = restarts_used;
            rec.backoff_left = backoff_left;
            rec.instr_since_yield = instr_since_yield;
            rec.pending_irqs = pending_irqs
                .into_iter()
                .map(|(slot, offset, priority)| {
                    let vector = rec.devices[slot].vector + offset;
                    (slot, InterruptRequest { vector, priority })
                })
                .collect();
        }
        let new_current = (self.current + k) % n;
        self.current = new_current;
        self.machine.obs.set_context(new_current as u16);
        self.program_user_mmu(new_current);
    }

    /// A canonical vector of the kernel's model-relevant state, used for
    /// state equality and hashing in the verification adapter.
    pub fn state_vector(&self) -> Vec<u64> {
        let mut v = Vec::new();
        v.push(self.current as u64);
        v.push(self.quantum_left);
        v.push(self.slot_idle_left);
        v.extend(self.sched.state_words());
        // Live CPU context.
        for r in self.machine.cpu.r {
            v.push(r as u64);
        }
        v.push(self.machine.cpu.sp_of(Mode::User) as u64);
        v.push(self.machine.cpu.pc as u64);
        v.push(self.machine.cpu.psw.0 as u64);
        for rec in &self.regimes {
            v.push(match rec.status {
                RegimeStatus::Ready => 0,
                RegimeStatus::Waiting => 1,
                RegimeStatus::Halted => 2,
                // Distinct causes are distinct states: a watchdog fault and
                // a trap fault recover differently, so they must not alias.
                RegimeStatus::Faulted(c) => 3 + (c.code() << 2),
            });
            v.push(rec.restarts_used as u64);
            v.push(rec.backoff_left as u64);
            v.push(rec.instr_since_yield);
            for r in rec.save.r {
                v.push(r as u64);
            }
            v.push(rec.save.sp as u64);
            v.push(rec.save.pc as u64);
            v.push(rec.save.cc as u64);
            v.push(rec.pending_irqs.len() as u64);
            for (slot, req) in &rec.pending_irqs {
                v.push(*slot as u64);
                v.push(req.vector as u64);
            }
            // Two independent fingerprints of the partition make an
            // accidental collision vanishingly unlikely; the second is
            // derived from the first so the partition is hashed once.
            let fp = self
                .machine
                .mem
                .fingerprint(rec.partition_base, PARTITION_SIZE);
            v.push(fp);
            v.push(fp.rotate_left(1) ^ fnv(rec.name.as_bytes()));
            if let Some(n) = &rec.native {
                v.push(fnv(&n.state_bytes()));
            }
        }
        for snap in self.machine.devices.snapshots() {
            let bytes: Vec<u8> = snap.iter().flat_map(|w| w.to_le_bytes()).collect();
            v.push(fnv(&bytes));
        }
        for ch in &self.channels {
            v.push(ch.queue().len() as u64);
            v.push(ch.latched_full as u64);
            for msg in ch.queue() {
                v.push(fnv(msg));
            }
        }
        v
    }

    /// The state vector this kernel would have after
    /// [`Self::rotate_regime_contents`]`(k)`, with every slot-identity
    /// component (the regime *name* salt of [`Self::state_vector`])
    /// removed — the keying the symmetry reduction minimizes over.
    ///
    /// Name-freedom matters twice: identically-imaged regimes differ only
    /// by name, so a name salt would make every orbit trivial; and each
    /// partition is hashed exactly once via `Memory::fingerprint` (the
    /// single-hash-per-partition path of the state vector), so
    /// canonicalization costs one extra hash of the small control vector
    /// per rotation, not a re-hash of memory.
    pub fn symmetry_vector(&self, k: usize) -> Vec<u64> {
        let n = self.regimes.len();
        let k = if n == 0 { 0 } else { k % n };
        let mut v = Vec::new();
        v.push(((self.current + k) % n.max(1)) as u64);
        v.push(self.quantum_left);
        v.push(self.slot_idle_left);
        v.extend(self.sched.state_words());
        // Live CPU context travels with the running regime; a rotation
        // leaves it untouched.
        for r in self.machine.cpu.r {
            v.push(r as u64);
        }
        v.push(self.machine.cpu.sp_of(Mode::User) as u64);
        v.push(self.machine.cpu.pc as u64);
        v.push(self.machine.cpu.psw.0 as u64);
        for j in 0..n {
            // The record whose movable contents occupy slot j post-rotation.
            let rec = &self.regimes[(j + n - k) % n];
            v.push(match rec.status {
                RegimeStatus::Ready => 0,
                RegimeStatus::Waiting => 1,
                RegimeStatus::Halted => 2,
                RegimeStatus::Faulted(c) => 3 + (c.code() << 2),
            });
            v.push(rec.restarts_used as u64);
            v.push(rec.backoff_left as u64);
            v.push(rec.instr_since_yield);
            for r in rec.save.r {
                v.push(r as u64);
            }
            v.push(rec.save.sp as u64);
            v.push(rec.save.pc as u64);
            v.push(rec.save.cc as u64);
            v.push(rec.pending_irqs.len() as u64);
            // Vectors are slot identity (assigned per device at boot); emit
            // the offset within the owning device's vector block instead so
            // the encoding is rotation-invariant. Delivery itself is already
            // slot-relative (the handler table is indexed by device slot).
            for (slot, req) in &rec.pending_irqs {
                v.push(*slot as u64);
                v.push((req.vector - rec.devices[*slot].vector) as u64);
            }
            v.push(
                self.machine
                    .mem
                    .fingerprint(rec.partition_base, PARTITION_SIZE),
            );
            if let Some(nat) = &rec.native {
                v.push(fnv(&nat.state_bytes()));
            }
            // Device state moves with the regime contents; emit it in slot
            // order rather than machine attach order.
            for b in &rec.devices {
                if let Some(d) = self.machine.devices.get(b.machine_index) {
                    let bytes: Vec<u8> =
                        d.snapshot().iter().flat_map(|w| w.to_le_bytes()).collect();
                    v.push(fnv(&bytes));
                }
            }
        }
        for ch in &self.channels {
            v.push(ch.queue().len() as u64);
            v.push(ch.latched_full as u64);
            for msg in ch.queue() {
                v.push(fnv(msg));
            }
        }
        v
    }
}

/// FNV-1a over a byte slice.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The [`RegimeIo`] a native regime sees: a narrow window onto the kernel.
struct KernelIo<'a> {
    kernel: &'a mut SeparationKernel,
    regime: usize,
}

impl RegimeIo for KernelIo<'_> {
    fn regime_id(&self) -> usize {
        self.kernel.regimes[self.regime].logical_id
    }

    fn send(&mut self, channel: usize, msg: &[u8]) -> ChannelStatus {
        let me = self.kernel.regimes[self.regime].logical_id;
        let Some(ch) = self.kernel.channels.get_mut(channel) else {
            return ChannelStatus::Invalid;
        };
        let status = ch.send(me, msg.to_vec());
        if status == ChannelStatus::Ok {
            self.kernel.stats.messages_sent += 1;
            self.kernel.stats.bytes_copied += msg.len() as u64;
            self.kernel
                .note_channel_send(self.regime, channel, msg.len());
        }
        status
    }

    fn recv(&mut self, channel: usize) -> Result<Vec<u8>, ChannelStatus> {
        let me = self.kernel.regimes[self.regime].logical_id;
        let result = match self.kernel.channels.get_mut(channel) {
            Some(ch) => ch.recv(me),
            None => Err(ChannelStatus::Invalid),
        };
        match result {
            Ok(msg) => {
                self.kernel.stats.bytes_copied += msg.len() as u64;
                self.kernel
                    .note_channel_recv(self.regime, channel, msg.len());
                Ok(msg)
            }
            // Native regimes get the same distinction machine-code ones do:
            // empty-forever (sender permanently down) is not empty-for-now.
            Err(ChannelStatus::Empty) if self.kernel.sender_down(channel) => {
                Err(ChannelStatus::PeerDown)
            }
            Err(status) => Err(status),
        }
    }

    fn poll(&self, channel: usize) -> Option<usize> {
        let me = self.kernel.regimes[self.regime].logical_id;
        self.kernel.channels.get(channel).and_then(|c| c.poll(me))
    }

    fn read_device(&mut self, slot: usize, offset: u32) -> Option<Word> {
        let binding = self.kernel.regimes[self.regime].devices.get(slot)?.clone();
        if offset >= binding.reg_len {
            return None;
        }
        self.kernel
            .machine
            .devices
            .get_mut(binding.machine_index)
            .map(|d| d.read_reg(offset))
    }

    fn write_device(&mut self, slot: usize, offset: u32, value: Word) -> bool {
        let Some(binding) = self.kernel.regimes[self.regime].devices.get(slot).cloned() else {
            return false;
        };
        if offset >= binding.reg_len {
            return false;
        }
        match self.kernel.machine.devices.get_mut(binding.machine_index) {
            Some(d) => {
                d.write_reg(offset, value);
                true
            }
            None => false,
        }
    }

    fn read_mem(&mut self, vaddr: Word) -> Option<u8> {
        if vaddr as u32 >= PARTITION_SIZE {
            return None;
        }
        let base = self.kernel.regimes[self.regime].partition_base;
        Some(self.kernel.machine.mem.read_byte(base + vaddr as u32))
    }

    fn write_mem(&mut self, vaddr: Word, value: u8) -> bool {
        if vaddr as u32 >= PARTITION_SIZE {
            return false;
        }
        let base = self.kernel.regimes[self.regime].partition_base;
        self.kernel
            .machine
            .mem
            .write_byte(base + vaddr as u32, value);
        true
    }

    fn take_interrupts(&mut self) -> Vec<(usize, Word)> {
        self.kernel.regimes[self.regime]
            .pending_irqs
            .drain(..)
            .map(|(slot, req)| (slot, req.vector))
            .collect()
    }
}
