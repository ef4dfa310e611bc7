//! End-to-end machine tests: assemble real programs and execute them.

use sep_machine::dev::clock::{LineClock, LKS_IE};
use sep_machine::dev::dma::{DmaDisk, CSR_GO, CSR_WRITE};
use sep_machine::dev::serial::SerialLine;
use sep_machine::mmu::{AbortReason, Access, SegmentDescriptor};
use sep_machine::psw::Mode;
use sep_machine::{assemble, Device, Event, Machine, Trap, IO_BASE};

/// Loads a program at physical/virtual 0 (MMU disabled) and returns the
/// machine ready to run in user mode.
fn machine_with(source: &str) -> Machine {
    let prog = assemble(source).expect("assembly failed");
    let mut m = Machine::new();
    m.mem.load_words(0, &prog.words);
    m.cpu.pc = prog.origin;
    m.cpu.set_reg(6, 0o10000); // a stack well away from the code
    m
}

/// Runs until a non-Ran event, with a step bound.
fn run(m: &mut Machine) -> Event {
    m.run_until_event(10_000).expect("machine did not stop").0
}

#[test]
fn sum_loop() {
    let mut m = machine_with(
        "
        CLR R0
        MOV #10, R1
loop:   ADD R1, R0
        SOB R1, loop
        HALT
",
    );
    assert_eq!(run(&mut m), Event::Trap(Trap::Halt));
    assert_eq!(m.cpu.reg(0), 55);
}

#[test]
fn memory_copy_with_autoincrement() {
    let mut m = machine_with(
        "
        MOV #src, R1
        MOV #dst, R2
        MOV #3, R3
loop:   MOV (R1)+, (R2)+
        SOB R3, loop
        HALT
src:    .word 0o111, 0o222, 0o333
dst:    .blkw 3
",
    );
    assert_eq!(run(&mut m), Event::Trap(Trap::Halt));
    let prog = assemble(
        "
        MOV #src, R1
        MOV #dst, R2
        MOV #3, R3
loop:   MOV (R1)+, (R2)+
        SOB R3, loop
        HALT
src:    .word 0o111, 0o222, 0o333
dst:    .blkw 3
",
    )
    .unwrap();
    let dst = prog.symbol("dst").unwrap() as u32;
    assert_eq!(m.mem.dump_words(dst, 3), vec![0o111, 0o222, 0o333]);
}

#[test]
fn subroutine_call_and_return() {
    let mut m = machine_with(
        "
        MOV #5, R0
        JSR PC, double
        JSR PC, double
        HALT
double: ADD R0, R0
        RTS PC
",
    );
    assert_eq!(run(&mut m), Event::Trap(Trap::Halt));
    assert_eq!(m.cpu.reg(0), 20);
}

#[test]
fn byte_operations_and_sign_extension() {
    let mut m = machine_with(
        "
        MOVB #-1, R0     ; sign-extends into the register
        MOVB #65, R1
        HALT
",
    );
    assert_eq!(run(&mut m), Event::Trap(Trap::Halt));
    assert_eq!(m.cpu.reg(0), 0o177777);
    assert_eq!(m.cpu.reg(1), 65);
}

#[test]
fn serial_transmit_polling() {
    // With the MMU disabled, virtual 0o177560 window-maps to the I/O page.
    let mut m = machine_with(
        "
        MOV #0o177564, R4   ; XCSR
        MOV #msg, R1
        MOV #2, R2
next:   BIT #0o200, (R4)    ; ready?
        BEQ next
        MOVB (R1)+, 2(R4)   ; XBUF
        SOB R2, next
done:   HALT
msg:    .ascii \"HI\"
",
    );
    let tty = m
        .devices
        .attach(Box::new(SerialLine::new("tty", 0o777560, 0o60, 4)));
    assert_eq!(run(&mut m), Event::Trap(Trap::Halt));
    // Let the transmitter drain.
    let out = m
        .devices
        .downcast_mut::<SerialLine>(tty)
        .unwrap()
        .host_take_output();
    assert_eq!(out, b"HI");
}

#[test]
fn serial_receive_polling() {
    let mut m = machine_with(
        "
        MOV #0o177560, R4   ; RCSR
        MOV #buf, R1
        MOV #3, R2
next:   BIT #0o200, (R4)
        BEQ next
        MOVB 2(R4), (R1)+   ; RBUF
        SOB R2, next
        HALT
buf:    .blkw 2
",
    );
    let tty = m
        .devices
        .attach(Box::new(SerialLine::new("tty", 0o777560, 0o60, 4)));
    m.devices
        .downcast_mut::<SerialLine>(tty)
        .unwrap()
        .host_send(b"abc");
    assert_eq!(run(&mut m), Event::Trap(Trap::Halt));
    // R1 advanced by 3 from buf.
    let base = m.cpu.reg(1) - 3;
    assert_eq!(m.mem.read_byte(base as u32), b'a');
    assert_eq!(m.mem.read_byte(base as u32 + 1), b'b');
    assert_eq!(m.mem.read_byte(base as u32 + 2), b'c');
}

#[test]
fn trap_instruction_reaches_kernel() {
    let mut m = machine_with("TRAP 7");
    assert_eq!(run(&mut m), Event::Trap(Trap::TrapInstr(7)));
}

#[test]
fn wait_idles() {
    let mut m = machine_with("WAIT");
    assert_eq!(run(&mut m), Event::Wait);
}

#[test]
fn illegal_instruction_traps() {
    let mut m = machine_with(".word 0o000007");
    assert_eq!(run(&mut m), Event::Trap(Trap::Illegal { word: 0o000007 }));
}

#[test]
fn odd_pc_traps() {
    let mut m = machine_with("NOP");
    m.cpu.pc = 1;
    assert!(matches!(
        run(&mut m),
        Event::Trap(Trap::OddAddress { vaddr: 1 })
    ));
}

#[test]
fn mmu_confines_user_program() {
    // Map user segment 0 to physical 0o40000 (8 KiB, RW), nothing else.
    let prog = assemble(
        "
        MOV #0o1234, R0
        MOV R0, @#0o20000   ; outside the single mapped segment
        HALT
",
    )
    .unwrap();
    let mut m = Machine::new();
    m.mem.load_words(0o40000, &prog.words);
    m.mmu.enabled = true;
    m.mmu.set_segment(
        Mode::User,
        0,
        SegmentDescriptor::mapping(0o40000, 0o20000, Access::ReadWrite),
    );
    m.cpu.pc = 0;
    m.cpu.set_reg(6, 0o17776);
    match run(&mut m) {
        Event::Trap(Trap::Mmu(abort)) => {
            assert_eq!(abort.vaddr, 0o20000);
            assert!(abort.write);
            assert_eq!(abort.reason, AbortReason::NonResident);
        }
        other => panic!("expected MMU abort, got {other:?}"),
    }
    // The store never reached physical memory.
    assert_eq!(m.mem.read_word(0o20000), 0);
}

#[test]
fn read_only_segment_blocks_stores() {
    let prog = assemble("MOV R0, @#0o20000\nHALT").unwrap();
    let mut m = Machine::new();
    m.mem.load_words(0o40000, &prog.words);
    m.mmu.enabled = true;
    m.mmu.set_segment(
        Mode::User,
        0,
        SegmentDescriptor::mapping(0o40000, 0o20000, Access::ReadWrite),
    );
    m.mmu.set_segment(
        Mode::User,
        1,
        SegmentDescriptor::mapping(0o100000, 0o20000, Access::ReadOnly),
    );
    m.cpu.pc = 0;
    m.cpu.set_reg(6, 0o17776);
    match run(&mut m) {
        Event::Trap(Trap::Mmu(abort)) => {
            assert_eq!(abort.reason, AbortReason::ReadOnlyViolation);
        }
        other => panic!("expected read-only abort, got {other:?}"),
    }
}

#[test]
fn clock_interrupt_surfaces_to_kernel() {
    let mut m = machine_with(
        "
loop:   BR loop
",
    );
    let clk = m
        .devices
        .attach(Box::new(LineClock::new(0o777546, 0o100, 3)));
    m.devices
        .downcast_mut::<LineClock>(clk)
        .unwrap()
        .write_reg(0, LKS_IE);
    match run(&mut m) {
        Event::Interrupt { device, request } => {
            assert_eq!(device, clk);
            assert_eq!(request.vector, 0o100);
            assert_eq!(request.priority, 6);
        }
        other => panic!("expected interrupt, got {other:?}"),
    }
}

#[test]
fn cpu_priority_masks_interrupts() {
    let mut m = machine_with("loop: BR loop");
    let clk = m
        .devices
        .attach(Box::new(LineClock::new(0o777546, 0o100, 1)));
    m.devices
        .downcast_mut::<LineClock>(clk)
        .unwrap()
        .write_reg(0, LKS_IE);
    m.cpu.psw.set_priority(7);
    // At priority 7 the clock (priority 6) cannot interrupt.
    assert!(m.run_until_event(100).is_none());
    m.cpu.psw.set_priority(5);
    assert!(matches!(run(&mut m), Event::Interrupt { .. }));
}

#[test]
fn dma_blocked_by_default() {
    let mut m = machine_with("loop: BR loop");
    let disk = m.devices.attach(Box::new(DmaDisk::new(0o777440, 0o220)));
    // Start a disk→memory transfer targeting kernel memory.
    {
        let d = m.devices.downcast_mut::<DmaDisk>(disk).unwrap();
        d.host_fill_sector(0, b"malicious payload");
        d.write_reg(2, 0o1000);
        d.write_reg(4, 8);
        d.write_reg(0, CSR_GO);
    }
    assert_eq!(run(&mut m), Event::DmaBlocked { device: disk });
    // Memory untouched.
    assert_eq!(m.mem.read_word(0o1000), 0);
}

#[test]
fn dma_violates_separation_when_allowed() {
    let mut m = machine_with("loop: BR loop");
    m.allow_dma = true;
    let disk = m.devices.attach(Box::new(DmaDisk::new(0o777440, 0o220)));
    {
        let d = m.devices.downcast_mut::<DmaDisk>(disk).unwrap();
        d.host_fill_sector(0, b"payload!");
        d.write_reg(2, 0o1000);
        d.write_reg(4, 4);
        d.write_reg(0, CSR_GO);
    }
    // One step performs the DMA; program keeps spinning.
    m.step();
    assert_eq!(&*m.mem.range(0o1000, 8), b"payload!");
}

/// A machine with DMA allowed and a disk whose sector 0 holds 16 bytes.
fn dma_machine() -> (Machine, usize) {
    let mut m = machine_with("loop: BR loop");
    m.allow_dma = true;
    let disk = m.devices.attach(Box::new(DmaDisk::new(0o777440, 0o220)));
    m.devices
        .downcast_mut::<DmaDisk>(disk)
        .unwrap()
        .host_fill_sector(0, b"0123456789abcdef");
    (m, disk)
}

/// Starts an 8-word transfer at an 18-bit physical address.
fn dma_start(m: &mut Machine, disk: usize, phys: u32, csr: u16) {
    let d = m.devices.downcast_mut::<DmaDisk>(disk).unwrap();
    d.write_reg(2, phys as u16);
    d.write_reg(4, 8);
    d.write_reg(0, CSR_GO | csr | ((phys >> 16) as u16) << 4);
}

#[test]
fn dma_into_the_io_page_touches_no_ram() {
    let (mut m, disk) = dma_machine();
    let before = m.mem.clone();
    dma_start(&mut m, disk, 0o777770, 0);
    m.step();
    assert_eq!(
        m.mem, before,
        "a transfer wholly in the I/O page stores nothing"
    );
    // Memory -> disk from the I/O page reads zeros.
    dma_start(&mut m, disk, 0o777770, CSR_WRITE);
    m.step();
    let d = m.devices.downcast_mut::<DmaDisk>(disk).unwrap();
    assert_eq!(&d.host_sector(0)[..16], &[0; 16]);
}

#[test]
fn dma_straddling_the_io_page_moves_only_its_ram_half() {
    let (mut m, disk) = dma_machine();
    dma_start(&mut m, disk, IO_BASE - 8, 0);
    m.step();
    assert_eq!(&*m.mem.range(IO_BASE - 8, 8), b"01234567");
    // Back to the disk: the RAM half, then zeros for the I/O half.
    dma_start(&mut m, disk, IO_BASE - 8, CSR_WRITE);
    m.step();
    let d = m.devices.downcast_mut::<DmaDisk>(disk).unwrap();
    assert_eq!(&d.host_sector(0)[..16], b"01234567\0\0\0\0\0\0\0\0");
}

#[test]
fn rti_restores_pc_and_condition_codes() {
    let m = machine_with(
        "
        MOV #after, -(SP)    ; push PSW-slot then PC? No: push PC last
        HALT                 ; placeholder, replaced below
after:  HALT
",
    );
    // Build the stack by hand: RTI pops PC then PSW.
    let mut m2 = machine_with(
        "
        MOV #1, -(SP)        ; saved condition codes (C set)
        MOV #target, -(SP)   ; saved PC
        RTI
        HALT
target: HALT
",
    );
    drop(m);
    assert_eq!(run(&mut m2), Event::Trap(Trap::Halt));
    // PC reached `target` (the second HALT), C restored.
    assert!(m2.cpu.psw.c());
}

#[test]
fn comparison_and_signed_branches() {
    let mut m = machine_with(
        "
        MOV #-5, R0
        CMP R0, #3       ; -5 < 3 → BLT taken
        BLT less
        MOV #0, R5
        HALT
less:   MOV #1, R5
        HALT
",
    );
    assert_eq!(run(&mut m), Event::Trap(Trap::Halt));
    assert_eq!(m.cpu.reg(5), 1);
}

#[test]
fn unsigned_branches() {
    let mut m = machine_with(
        "
        MOV #0o177777, R0    ; 65535 unsigned
        CMP R0, #1           ; 65535 > 1 unsigned
        BHI high
        MOV #0, R5
        HALT
high:   MOV #1, R5
        HALT
",
    );
    assert_eq!(run(&mut m), Event::Trap(Trap::Halt));
    assert_eq!(m.cpu.reg(5), 1);
}

#[test]
fn mul_and_div() {
    let mut m = machine_with(
        "
        MOV #300, R0
        MUL #200, R0     ; R0:R1 = 60000
        MOV #7, R2
        MOV #100, R3
        MOV #0, R2
        MOV #60000, R3   ; set up dividend in R2:R3 directly
        DIV #7, R2       ; quotient R2, remainder R3
        HALT
",
    );
    assert_eq!(run(&mut m), Event::Trap(Trap::Halt));
    assert_eq!(m.cpu.reg(2), 60000 / 7);
    assert_eq!(m.cpu.reg(3), 60000 % 7);
}

#[test]
fn xor_and_shifts() {
    let mut m = machine_with(
        "
        MOV #0o252, R0
        MOV #0o377, R1
        XOR R0, R1       ; R1 = 0o125
        MOV #1, R2
        ASH #3, R2       ; R2 = 8
        HALT
",
    );
    assert_eq!(run(&mut m), Event::Trap(Trap::Halt));
    assert_eq!(m.cpu.reg(1), 0o125);
    assert_eq!(m.cpu.reg(2), 8);
}

#[test]
fn stack_push_pop_roundtrip() {
    let mut m = machine_with(
        "
        MOV #0o1111, -(SP)
        MOV #0o2222, -(SP)
        MOV (SP)+, R0
        MOV (SP)+, R1
        HALT
",
    );
    assert_eq!(run(&mut m), Event::Trap(Trap::Halt));
    assert_eq!(m.cpu.reg(0), 0o2222);
    assert_eq!(m.cpu.reg(1), 0o1111);
    assert_eq!(m.cpu.reg(6), 0o10000);
}

#[test]
fn bus_error_on_unmapped_io() {
    let mut m = machine_with("MOV @#0o177560, R0\nHALT");
    // No device attached at the console address.
    assert!(matches!(run(&mut m), Event::Trap(Trap::BusError { .. })));
}

#[test]
fn emt_bpt_iot_surface_distinct_traps() {
    assert_eq!(
        run(&mut machine_with("EMT 0o42")),
        Event::Trap(Trap::Emt(0o42))
    );
    assert_eq!(run(&mut machine_with("BPT")), Event::Trap(Trap::Bpt));
    assert_eq!(run(&mut machine_with("IOT")), Event::Trap(Trap::Iot));
}

#[test]
fn rtt_returns_like_rti() {
    let mut m = machine_with(
        "
        MOV #0, -(SP)        ; saved condition codes
        MOV #target, -(SP)   ; saved PC
        RTT
        HALT
target: MOV #1, R5
        HALT
",
    );
    assert_eq!(run(&mut m), Event::Trap(Trap::Halt));
    assert_eq!(m.cpu.reg(5), 1);
}

#[test]
fn reset_is_a_no_op_in_user_mode() {
    let mut m = machine_with("RESET\nMOV #3, R0\nHALT");
    assert_eq!(run(&mut m), Event::Trap(Trap::Halt));
    assert_eq!(m.cpu.reg(0), 3);
}

#[test]
fn jmp_to_register_is_illegal() {
    let mut m = machine_with("JMP R3");
    assert!(matches!(run(&mut m), Event::Trap(Trap::Illegal { .. })));
}

#[test]
fn div_by_zero_sets_v_and_c() {
    let mut m = machine_with(
        "
        MOV #0, R2
        MOV #100, R3
        DIV #0, R2
        HALT
",
    );
    assert_eq!(run(&mut m), Event::Trap(Trap::Halt));
    assert!(m.cpu.psw.v());
    assert!(m.cpu.psw.c());
    // Registers unchanged on the error path.
    assert_eq!(m.cpu.reg(3), 100);
}
