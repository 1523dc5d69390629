//! Dense-ID bitset taint kernel: the production taint engine.
//!
//! It computes the reference engine's leak set ([`crate::taint`]; the
//! corpus equivalence suite asserts byte-identical output) on every app,
//! without touching a string or allocating inside the fixpoint:
//!
//! * **Compile once, allocate never** — every in-scope method body is
//!   lowered in a single pass to a flat op stream over `u32` ids: taint
//!   labels, `(class, field)` pairs, ICC channels, sink sites and call
//!   targets are all interned as they are first seen, and each body's
//!   registers are renumbered to dense slots (the distinct registers it
//!   uses), so register indexes and `param_count` never size a table.
//!   All compile output lives in thread-local scratch buffers that are
//!   cleared and reused across apps — the interning tables hold
//!   static-table pointers, dex locators and ranges of one reused text
//!   buffer rather than owned strings — so steady-state analysis
//!   performs no heap allocation; witness strings are materialized only
//!   when a leak is reported.
//! * **Bitset taint** — a taint set is `w = max(1, ⌈labels/64⌉)` words,
//!   with `w` fixed per app; each table keeps its sets in one flat
//!   array. Union, test and population count are plain per-word loops.
//! * **Dirty-bit worklist** — instead of re-sweeping every method each
//!   global round, a FIFO worklist re-processes only methods whose
//!   inputs (parameter, field, return or ICC-channel taint) actually
//!   grew. Dependency lists are CSR slices built by one sort per app.
//!   Both engines drive the same monotone transfer function to its least
//!   fixpoint, so the result is order-independent.
//!
//! See DESIGN.md §11 for the equivalence argument.

use crate::apg::Apg;
use crate::consts;
use crate::sensitive::{self, SensitiveApi};
use crate::sinks::{self, SinkApi};
use crate::taint::{body_regs, Leak};
use crate::uris;
use ppchecker_apk::{Insn, Method, PrivateInfo, Reg};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;

/// Sentinel for "no id" in packed op fields.
const NONE: u32 = u32::MAX;

thread_local! {
    /// Compile output, cleared and reused across apps on this thread.
    static COMPILE: RefCell<CompileScratch> = const { RefCell::new(CompileScratch::new()) };
    /// Fixpoint state, likewise reused.
    static STATE: RefCell<StateScratch> = const { RefCell::new(StateScratch::new()) };
}

/// Runs the kernel over the methods `in_scope` marks (indexed by id).
pub(crate) fn run(apg: &Apg, in_scope: &[bool]) -> Vec<Leak> {
    COMPILE.with(|cell| {
        let mut cs = cell.borrow_mut();
        {
            let _span = ppchecker_obs::span!("taint.compile");
            compile(apg, in_scope, &mut cs);
        }
        let prog = Program { apg, cs: &cs };
        let _span = ppchecker_obs::span!("taint.fixpoint");
        STATE.with(|s| exec(&prog, &mut s.borrow_mut()))
    })
}

// ---------------------------------------------------------------------------
// Bitsets
// ---------------------------------------------------------------------------

/// Words per taint bitset for `labels` distinct labels.
fn width(labels: usize) -> usize {
    labels.div_ceil(64).max(1)
}

/// Sets `bit`; true if it was clear.
#[inline]
fn set(bits: &mut [u64], bit: u32) -> bool {
    let word = &mut bits[(bit / 64) as usize];
    let mask = 1u64 << (bit % 64);
    let fresh = *word & mask == 0;
    *word |= mask;
    fresh
}

/// Unions `add` into `bits`; true if any new bit arrived.
#[inline]
fn union(bits: &mut [u64], add: &[u64]) -> bool {
    let mut changed = 0u64;
    for (word, &a) in bits.iter_mut().zip(add) {
        changed |= a & !*word;
        *word |= a;
    }
    changed != 0
}

#[inline]
fn is_empty(bits: &[u64]) -> bool {
    bits.iter().all(|&word| word == 0)
}

#[inline]
fn count(bits: &[u64]) -> usize {
    bits.iter().map(|word| word.count_ones() as usize).sum()
}

/// Indexes of set bits, ascending.
fn ones(bits: &[u64]) -> impl Iterator<Item = u32> + '_ {
    bits.iter().enumerate().flat_map(|(wi, &word)| {
        let mut w = word;
        std::iter::from_fn(move || {
            if w == 0 {
                return None;
            }
            let bit = w.trailing_zeros();
            w &= w - 1;
            Some(wi as u32 * 64 + bit)
        })
    })
}

/// One taint bitset of `w` words per row (register slot, field, method,
/// channel or sink site), all rows in one flat array.
#[derive(Debug)]
struct Table {
    w: usize,
    words: Vec<u64>,
}

impl Table {
    const fn new() -> Self {
        Table { w: 1, words: Vec::new() }
    }

    /// Empties the table to `rows` all-zero rows of `w` words.
    fn reset(&mut self, rows: usize, w: usize) {
        self.w = w;
        self.words.clear();
        self.words.resize(rows * w, 0);
    }

    #[inline]
    fn row(&self, i: u32) -> &[u64] {
        let at = i as usize * self.w;
        &self.words[at..at + self.w]
    }

    #[inline]
    fn row_mut(&mut self, i: u32) -> &mut [u64] {
        let at = i as usize * self.w;
        &mut self.words[at..at + self.w]
    }

    fn rows(&self) -> impl Iterator<Item = &[u64]> {
        self.words.chunks_exact(self.w)
    }
}

// ---------------------------------------------------------------------------
// Compiled program
// ---------------------------------------------------------------------------

/// One lowered instruction over register slots. Register-only ops inline
/// their operands; invokes index the side table in
/// [`CompileScratch::invokes`].
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `ConstString` / `NewInstance`: strong clear of `dst`.
    Clear(Reg),
    /// `Move`: strong copy (can remove taint).
    Copy { dst: Reg, src: Reg },
    /// `FieldPut` into interned field id.
    FieldPut { field: u32, src: Reg },
    /// `FieldGet` from interned field id (weak: never clears).
    FieldGet { field: u32, dst: Reg },
    /// `Return` of a value register.
    Ret { src: Reg },
    /// Invoke; payload indexes [`CompileScratch::invokes`].
    Invoke(u32),
}

/// Pre-resolved effects of one invoke site, applied in the reference
/// engine's order: arg-union, source, URI source, ICC put, ICC get,
/// sink, call/taint-through, dst-union.
#[derive(Debug, Clone, Copy)]
struct InvokeOp {
    /// Range into [`CompileScratch::arg_regs`].
    args_start: u32,
    args_len: u32,
    /// Destination slot or [`NONE`].
    dst: u32,
    /// Sensitive-API label introduced into `dst`, or [`NONE`].
    source_label: u32,
    /// Sensitive-URI label introduced into `dst`, or [`NONE`].
    uri_label: u32,
    /// ICC channel written by `putExtra`, or [`NONE`].
    icc_put: u32,
    /// ICC channel read by `get*Extra`, or [`NONE`].
    icc_get: u32,
    /// Interned sink site, or [`NONE`].
    sink_site: u32,
    /// In-scope app call target (method id), or [`NONE`].
    call: u32,
    /// Framework call: result carries argument taint.
    taint_through: bool,
}

/// Where one compiled body lives in the flat op stream.
#[derive(Debug, Clone, Copy, Default)]
struct MethodMeta {
    ops_start: u32,
    ops_end: u32,
    /// Register slots: the distinct registers the body uses.
    slots: u32,
    /// Leading slots that hold parameter registers.
    param_slots: u32,
    /// False ⇔ out of scope (never processed).
    compiled: bool,
    /// True when one interpretation pass provably reaches the body's
    /// local fixpoint: no op reads a register, field, or ICC channel
    /// that a *later* op in the same body writes, and the body never
    /// calls itself. Re-running such a body recomputes identical values
    /// (unions are idempotent and every read sees the same inputs), so
    /// `process` skips the multi-pass loop and its popcount sweeps.
    single_pass: bool,
}

/// A taint label, kept symbolic until a leak is actually reported:
/// table-sourced labels are just a pointer into the static API table,
/// URI labels hold the witness string the reference engine would emit,
/// as a range of [`CompileScratch::text`].
#[derive(Debug, Clone)]
enum LabelRef {
    Api(&'static SensitiveApi),
    Uri { info: PrivateInfo, src: (u32, u32) },
}

/// A sink call site: static table entry × method id. Ids are distinct
/// `(class, method)` pairs, so sites map onto the reference engine's
/// `(sink_api, at_method)` witness strings, and (label × site) pairs onto
/// its `Leak` set.
#[derive(Debug, Clone, Copy)]
struct SiteRef {
    api: &'static SinkApi,
    at_ix: u32,
}

/// Dependency rows in compressed sparse row form: one sort per app, no
/// per-row `Vec`s.
#[derive(Debug)]
struct Csr {
    off: Vec<u32>,
    dat: Vec<u32>,
}

impl Csr {
    const fn new() -> Self {
        Csr { off: Vec::new(), dat: Vec::new() }
    }

    /// Rebuilds from `(key, value)` pairs; sorts and dedups in place.
    fn build(&mut self, pairs: &mut Vec<(u32, u32)>, keys: usize) {
        pairs.sort_unstable();
        pairs.dedup();
        self.off.clear();
        self.off.resize(keys + 1, 0);
        self.dat.clear();
        self.dat.reserve(pairs.len());
        for &(k, v) in pairs.iter() {
            self.off[k as usize + 1] += 1;
            self.dat.push(v);
        }
        for i in 0..keys {
            self.off[i + 1] += self.off[i];
        }
    }

    #[inline]
    fn row(&self, k: u32) -> &[u32] {
        &self.dat[self.off[k as usize] as usize..self.off[k as usize + 1] as usize]
    }
}

/// Reusable compile output: the flat op stream, per-method metadata, the
/// per-app interning tables and the dependency CSRs. Everything is
/// `clear()`ed — capacity retained — at the start of each app, so a
/// steady-state compile performs no heap allocation: labels and sites
/// hold `&'static` table pointers, fields are `(method id, instruction
/// index)` locators into the dex, and URI witnesses and channel names
/// are ranges of one text buffer instead of owned strings.
#[derive(Debug)]
struct CompileScratch {
    /// In-scope method ids, ascending.
    scope_ixs: Vec<u32>,
    metas: Vec<MethodMeta>,
    ops: Vec<Op>,
    invokes: Vec<InvokeOp>,
    arg_regs: Vec<Reg>,
    labels: Vec<LabelRef>,
    sites: Vec<SiteRef>,
    /// ICC channel names, as ranges of `text`.
    channels: Vec<(u32, u32)>,
    /// URI label witnesses and channel names, back to back.
    text: String,
    /// Per register slot of the current body: the `const-string`
    /// instruction it last held and, for an intent, the one naming the
    /// class it was last set to (`NONE` for neither). Filled only for
    /// bodies that put extras.
    slot_strings: Vec<u32>,
    slot_targets: Vec<u32>,
    /// `(class, field)` pairs as dex locators; resolve via [`field_at`].
    fields: Vec<(u32, u32)>,
    field_pairs: Vec<(u32, u32)>,
    caller_pairs: Vec<(u32, u32)>,
    channel_pairs: Vec<(u32, u32)>,
    /// field id → in-scope methods with a `FieldGet` of it.
    field_readers: Csr,
    /// method id → in-scope callers.
    callers_of: Csr,
    /// channel id → in-scope methods with a `get*Extra` on it.
    channel_readers: Csr,
    /// The current body's registers, sorted: slot *i* is `body[i]`.
    body: Vec<Reg>,
    /// Write-tracking scratch for the single-pass check (one entry per
    /// slot / field / channel, reused across methods).
    wr_slots: Vec<bool>,
    wr_fields: Vec<bool>,
    wr_chans: Vec<bool>,
    /// Largest slot count of any body (scratch sizing).
    max_slots: u32,
    /// Total method ids in the app (indexable tables).
    method_total: usize,
}

impl CompileScratch {
    const fn new() -> Self {
        CompileScratch {
            scope_ixs: Vec::new(),
            metas: Vec::new(),
            ops: Vec::new(),
            invokes: Vec::new(),
            arg_regs: Vec::new(),
            labels: Vec::new(),
            sites: Vec::new(),
            channels: Vec::new(),
            text: String::new(),
            slot_strings: Vec::new(),
            slot_targets: Vec::new(),
            fields: Vec::new(),
            field_pairs: Vec::new(),
            caller_pairs: Vec::new(),
            channel_pairs: Vec::new(),
            field_readers: Csr::new(),
            callers_of: Csr::new(),
            channel_readers: Csr::new(),
            body: Vec::new(),
            wr_slots: Vec::new(),
            wr_fields: Vec::new(),
            wr_chans: Vec::new(),
            max_slots: 0,
            method_total: 0,
        }
    }
}

/// Everything the fixpoint needs, borrowed together.
struct Program<'a, 's> {
    apg: &'a Apg<'a>,
    cs: &'s CompileScratch,
}

/// The `(class, field)` strings behind a field locator.
fn field_at<'d>(apg: &'d Apg, ix: u32, idx: u32) -> (&'d str, &'d str) {
    match &apg.method_def(ix).1.instructions[idx as usize] {
        Insn::FieldPut { class, field, .. } | Insn::FieldGet { class, field, .. } => {
            (class.as_str(), field.as_str())
        }
        _ => unreachable!("field locator points at a field instruction"),
    }
}

/// Single-pass lowering of every in-scope body into `cs`.
fn compile(apg: &Apg, in_scope: &[bool], cs: &mut CompileScratch) {
    let method_total = apg.method_count();
    cs.method_total = method_total;
    cs.max_slots = 0;
    cs.scope_ixs.clear();
    cs.scope_ixs.extend((0..method_total as u32).filter(|&ix| in_scope[ix as usize]));
    cs.metas.clear();
    cs.metas.resize(method_total, MethodMeta::default());
    cs.ops.clear();
    cs.invokes.clear();
    cs.arg_regs.clear();
    cs.labels.clear();
    cs.sites.clear();
    cs.channels.clear();
    cs.text.clear();
    cs.fields.clear();
    cs.field_pairs.clear();
    cs.caller_pairs.clear();
    cs.channel_pairs.clear();

    // Detach the scope list so `cs` stays mutably borrowable per method.
    let scope = std::mem::take(&mut cs.scope_ixs);
    for &ix in &scope {
        compile_method(apg, in_scope, ix, cs);
    }
    cs.scope_ixs = scope;

    let n_fields = cs.fields.len();
    let n_channels = cs.channels.len();
    let CompileScratch {
        field_pairs,
        caller_pairs,
        channel_pairs,
        field_readers,
        callers_of,
        channel_readers,
        ..
    } = cs;
    field_readers.build(field_pairs, n_fields);
    callers_of.build(caller_pairs, method_total);
    channel_readers.build(channel_pairs, n_channels);
}

fn compile_method(apg: &Apg, in_scope: &[bool], ix: u32, cs: &mut CompileScratch) {
    let (class, method) = apg.method_def(ix);
    let class_name = class.name.as_str();

    // Dense register slots: slot i is the i-th smallest register the body
    // uses, so the parameter registers it uses are the leading slots.
    let mut body = std::mem::take(&mut cs.body);
    body_regs(method, &mut body);
    let slot = |r: Reg| body.binary_search(&r).expect("body_regs covers every operand") as Reg;

    // Const-string intent-target tracking runs only on the rare bodies
    // that put an extra.
    let has_put_extra = method.instructions.iter().any(|insn| {
        matches!(insn, Insn::Invoke { class: c, method: m, .. }
            if c == "android.content.Intent" && m == "putExtra")
    });
    if has_put_extra {
        intent_targets(method, slot, body.len(), cs);
    }
    let ops_start = cs.ops.len() as u32;
    for (idx, insn) in method.instructions.iter().enumerate() {
        match insn {
            Insn::ConstString { dst, .. } | Insn::NewInstance { dst, .. } => {
                cs.ops.push(Op::Clear(slot(*dst)));
            }
            Insn::Move { dst, src } => {
                cs.ops.push(Op::Copy { dst: slot(*dst), src: slot(*src) });
            }
            Insn::FieldPut { src, .. } => {
                let field = intern_field(apg, cs, ix, idx as u32);
                cs.ops.push(Op::FieldPut { field, src: slot(*src) });
            }
            Insn::FieldGet { dst, .. } => {
                let field = intern_field(apg, cs, ix, idx as u32);
                cs.field_pairs.push((field, ix));
                cs.ops.push(Op::FieldGet { field, dst: slot(*dst) });
            }
            Insn::Return { src: Some(s) } => {
                cs.ops.push(Op::Ret { src: slot(*s) });
            }
            Insn::Invoke { class: c, method: m, args, dst, .. } => {
                let args_start = cs.arg_regs.len() as u32;
                cs.arg_regs.extend(args.iter().map(|&a| slot(a)));

                let source_label =
                    sensitive::lookup(c, m).map(|api| intern_label_api(cs, api)).unwrap_or(NONE);
                // The URI argument follows the receiver.
                let uri_label = if consts::is_query_call(c, m) {
                    args.iter()
                        .skip(1)
                        .find_map(|&arg| consts::resolve_uri_at(method, idx, arg))
                        .map_or(NONE, |at| intern_label_uri(cs, &method.instructions[at]))
                } else {
                    NONE
                };

                let mut icc_put = NONE;
                let mut icc_get = NONE;
                if c == "android.content.Intent" {
                    if m == "putExtra" {
                        let target =
                            args.first().map_or(NONE, |&r| cs.slot_targets[slot(r) as usize]);
                        if target != NONE {
                            icc_put = intern_channel(cs, const_string(method, target));
                        }
                    }
                    if matches!(
                        m.as_str(),
                        "getStringExtra" | "getExtras" | "getParcelableExtra" | "getIntExtra"
                    ) {
                        let ch = intern_channel(cs, class_name);
                        icc_get = ch;
                        cs.channel_pairs.push((ch, ix));
                    }
                }

                let sink_site =
                    sinks::lookup(c, m).map(|api| intern_site(cs, api, ix)).unwrap_or(NONE);

                let mut call = NONE;
                let mut taint_through = false;
                match apg.lookup_ix(c, m) {
                    Some(t) if in_scope[t as usize] => {
                        call = t;
                        cs.caller_pairs.push((t, ix));
                    }
                    Some(_) => {} // app method out of scope: no flow
                    None => taint_through = true,
                }

                let inv = InvokeOp {
                    args_start,
                    args_len: args.len() as u32,
                    dst: dst.map_or(NONE, slot),
                    source_label,
                    uri_label,
                    icc_put,
                    icc_get,
                    sink_site,
                    call,
                    taint_through,
                };
                let inv_ix = cs.invokes.len() as u32;
                cs.invokes.push(inv);
                cs.ops.push(Op::Invoke(inv_ix));
            }
            _ => {}
        }
    }
    let slots = body.len() as u32;
    let param_slots = body.partition_point(|&r| r < method.param_count) as u32;
    cs.body = body;
    cs.max_slots = cs.max_slots.max(slots);
    let single_pass = is_single_pass(cs, ops_start as usize, ix, slots);
    cs.metas[ix as usize] = MethodMeta {
        ops_start,
        ops_end: cs.ops.len() as u32,
        slots,
        param_slots,
        compiled: true,
        single_pass,
    };
}

/// Backward scan over a freshly lowered body: true when no op reads a
/// register, field, or ICC channel that a later op writes, and the body
/// never invokes itself. For such bodies a second interpretation pass
/// sees every input unchanged (unions are idempotent, clears and copies
/// recompute the same values), so one pass is the local fixpoint.
fn is_single_pass(cs: &mut CompileScratch, ops_start: usize, ix: u32, slots: u32) -> bool {
    let CompileScratch {
        ops,
        invokes,
        arg_regs,
        fields,
        channels,
        wr_slots,
        wr_fields,
        wr_chans,
        ..
    } = cs;
    wr_slots.clear();
    wr_slots.resize(slots as usize, false);
    wr_fields.clear();
    wr_fields.resize(fields.len(), false);
    wr_chans.clear();
    wr_chans.resize(channels.len(), false);
    for op in ops[ops_start..].iter().rev() {
        // Check this op's reads against everything written after it,
        // *then* record its own writes.
        match *op {
            Op::Clear(dst) => wr_slots[dst as usize] = true,
            Op::Copy { dst, src } => {
                if wr_slots[src as usize] {
                    return false;
                }
                wr_slots[dst as usize] = true;
            }
            Op::FieldPut { field, src } => {
                if wr_slots[src as usize] {
                    return false;
                }
                wr_fields[field as usize] = true;
            }
            Op::FieldGet { field, dst } => {
                if wr_fields[field as usize] {
                    return false;
                }
                wr_slots[dst as usize] = true;
            }
            Op::Ret { src } => {
                if wr_slots[src as usize] {
                    return false;
                }
            }
            Op::Invoke(i) => {
                let inv = invokes[i as usize];
                let args =
                    &arg_regs[inv.args_start as usize..(inv.args_start + inv.args_len) as usize];
                if args.iter().any(|&r| wr_slots[r as usize]) {
                    return false;
                }
                if inv.icc_get != NONE && wr_chans[inv.icc_get as usize] {
                    return false;
                }
                if inv.call == ix {
                    return false; // self-recursion: return feeds back in
                }
                if inv.dst != NONE {
                    wr_slots[inv.dst as usize] = true;
                }
                if inv.icc_put != NONE {
                    wr_chans[inv.icc_put as usize] = true;
                }
            }
        }
    }
    true
}

// The interning tables are per-app and tiny (a handful of entries), so a
// linear scan beats hashing — and keeps the scans allocation-free.

fn intern_label_api(cs: &mut CompileScratch, api: &'static SensitiveApi) -> u32 {
    if let Some(id) =
        cs.labels.iter().position(|l| matches!(l, LabelRef::Api(a) if std::ptr::eq(*a, api)))
    {
        return id as u32;
    }
    cs.labels.push(LabelRef::Api(api));
    (cs.labels.len() - 1) as u32
}

/// Interns the label of a query site whose URI resolved to `uri` (a
/// `const-string` or a URI field read), or returns `NONE` when the URI is
/// not sensitive. The witness is written to the end of `cs.text`, where
/// it stays only if the label is new.
fn intern_label_uri(cs: &mut CompileScratch, uri: &Insn) -> u32 {
    let start = cs.text.len();
    let info = match uri {
        Insn::ConstString { value, .. } => {
            let Some(u) = uris::match_uri_string(value) else {
                return NONE;
            };
            cs.text.push_str(value);
            u.info
        }
        Insn::FieldGet { class, field, .. } => {
            write!(cs.text, "<{class}: android.net.Uri {field}>").expect("writing to a String");
            let Some(u) = uris::match_uri_field(&cs.text[start..]) else {
                cs.text.truncate(start);
                return NONE;
            };
            u.info
        }
        _ => unreachable!("a URI resolves to a const-string or a field read"),
    };
    let witness = &cs.text[start..];
    let seen = cs.labels.iter().position(|l| {
        matches!(l, LabelRef::Uri { info: i, src } if *i == info && text_at(&cs.text, *src) == witness)
    });
    if let Some(id) = seen {
        cs.text.truncate(start);
        return id as u32;
    }
    cs.labels.push(LabelRef::Uri { info, src: (start as u32, cs.text.len() as u32) });
    (cs.labels.len() - 1) as u32
}

fn intern_channel(cs: &mut CompileScratch, name: &str) -> u32 {
    if let Some(id) = cs.channels.iter().position(|&c| text_at(&cs.text, c) == name) {
        return id as u32;
    }
    let start = cs.text.len() as u32;
    cs.text.push_str(name);
    cs.channels.push((start, cs.text.len() as u32));
    (cs.channels.len() - 1) as u32
}

/// The `(start, end)` range of `text`.
fn text_at(text: &str, (start, end): (u32, u32)) -> &str {
    &text[start as usize..end as usize]
}

/// The value of the `const-string` at `idx`.
fn const_string(method: &Method, idx: u32) -> &str {
    match &method.instructions[idx as usize] {
        Insn::ConstString { value, .. } => value,
        _ => unreachable!("an intent target is a const-string"),
    }
}

/// The reference engine's `intent_targets` over the body's register
/// slots, into `cs.slot_targets`: each intent slot maps to the
/// `const-string` naming the class it was last set to.
fn intent_targets(
    method: &Method,
    slot: impl Fn(Reg) -> Reg,
    slots: usize,
    cs: &mut CompileScratch,
) {
    let CompileScratch { slot_strings: strings, slot_targets: targets, .. } = cs;
    strings.clear();
    strings.resize(slots, NONE);
    targets.clear();
    targets.resize(slots, NONE);
    for (idx, insn) in method.instructions.iter().enumerate() {
        match insn {
            Insn::ConstString { dst, .. } => strings[slot(*dst) as usize] = idx as u32,
            Insn::Invoke { class, method: m, args, .. }
                if class == "android.content.Intent"
                    && matches!(m.as_str(), "setClass" | "setClassName" | "setComponent") =>
            {
                let target =
                    args.iter().skip(1).map(|&r| strings[slot(r) as usize]).find(|&s| s != NONE);
                if let (Some(&intent), Some(target)) = (args.first(), target) {
                    targets[slot(intent) as usize] = target;
                }
            }
            _ => {}
        }
    }
}

fn intern_field(apg: &Apg, cs: &mut CompileScratch, ix: u32, idx: u32) -> u32 {
    let (class, field) = field_at(apg, ix, idx);
    if let Some(id) = cs.fields.iter().position(|&(fix, fidx)| {
        let (c, f) = field_at(apg, fix, fidx);
        c == class && f == field
    }) {
        return id as u32;
    }
    cs.fields.push((ix, idx));
    (cs.fields.len() - 1) as u32
}

fn intern_site(cs: &mut CompileScratch, api: &'static SinkApi, at_ix: u32) -> u32 {
    if let Some(id) = cs.sites.iter().position(|s| std::ptr::eq(s.api, api) && s.at_ix == at_ix) {
        return id as u32;
    }
    cs.sites.push(SiteRef { api, at_ix });
    (cs.sites.len() - 1) as u32
}

/// Materializes a label's `(info, source_api)` exactly as the reference
/// engine spells it.
fn label_parts(label: &LabelRef, text: &str) -> (PrivateInfo, String) {
    match label {
        LabelRef::Api(api) => (api.info, format!("{}.{}", api.class, api.method)),
        LabelRef::Uri { info, src } => (*info, text_at(text, *src).to_string()),
    }
}

// ---------------------------------------------------------------------------
// Fixpoint state
// ---------------------------------------------------------------------------

/// Flat bitset tables + the dirty worklist, cleared and reused across
/// apps (capacity retained).
#[derive(Debug)]
struct StateScratch {
    regs: Table,
    field_taint: Table,
    param_taint: Table,
    return_taint: Table,
    icc_taint: Table,
    /// site id → labels that reached it; `leak_total` tracks Σ popcount
    /// so the local stopping rule can mirror the reference's
    /// `leaks.len()` term exactly.
    sink_leaks: Table,
    leak_total: usize,
    /// The current invoke's argument taint (one bitset).
    arg: Vec<u64>,
    dirty: Vec<bool>,
    queue: VecDeque<u32>,
}

impl StateScratch {
    const fn new() -> Self {
        StateScratch {
            regs: Table::new(),
            field_taint: Table::new(),
            param_taint: Table::new(),
            return_taint: Table::new(),
            icc_taint: Table::new(),
            sink_leaks: Table::new(),
            leak_total: 0,
            arg: Vec::new(),
            dirty: Vec::new(),
            queue: VecDeque::new(),
        }
    }

    fn reset(&mut self, prog: &Program) {
        let cs = prog.cs;
        let w = width(cs.labels.len());
        self.regs.reset(cs.max_slots as usize, w);
        self.field_taint.reset(cs.fields.len(), w);
        self.param_taint.reset(cs.method_total, w);
        self.return_taint.reset(cs.method_total, w);
        self.icc_taint.reset(cs.channels.len(), w);
        self.sink_leaks.reset(cs.sites.len(), w);
        self.leak_total = 0;
        self.arg.clear();
        self.arg.resize(w, 0);
        self.dirty.clear();
        self.dirty.resize(cs.method_total, false);
        self.queue.clear();
    }

    #[inline]
    fn mark(&mut self, ix: u32) {
        if !self.dirty[ix as usize] {
            self.dirty[ix as usize] = true;
            self.queue.push_back(ix);
        }
    }

    fn mark_all(&mut self, ixs: &[u32]) {
        for &ix in ixs {
            self.mark(ix);
        }
    }
}

fn exec(prog: &Program, st: &mut StateScratch) -> Vec<Leak> {
    st.reset(prog);
    st.mark_all(&prog.cs.scope_ixs);
    while let Some(ix) = st.queue.pop_front() {
        st.dirty[ix as usize] = false;
        process(prog, st, ix);
    }
    collect_leaks(prog, st)
}

/// One application of the method transfer function: reset the body's
/// slots, seed the parameter slots, interpret up to 4 local passes with
/// the reference engine's exact stopping rule (Σ register popcount +
/// leak count).
fn process(prog: &Program, st: &mut StateScratch, ix: u32) {
    let meta = prog.cs.metas[ix as usize];
    if !meta.compiled {
        return;
    }
    // Rows 0..slots of `regs` are this body's register file.
    let live = meta.slots as usize * st.regs.w;
    st.regs.words[..live].fill(0);
    for s in 0..meta.param_slots {
        st.regs.row_mut(s).copy_from_slice(st.param_taint.row(ix));
    }
    if meta.single_pass {
        // Straight-line body: one pass is the local fixpoint (see
        // [`MethodMeta::single_pass`]); skip the stopping-rule sweeps.
        interpret(prog, st, ix, meta);
        return;
    }
    // The reference engine's stopping rule: iterate (≤ 4 passes) until
    // Σ register popcount + leak count stops growing. Both are monotone
    // during interpretation, so the score after one pass is the score
    // before the next — compute it once per pass. Registers the body
    // never uses would add the same constant to both sides, so summing
    // the body's slots decides exactly as the reference does.
    let score = |st: &StateScratch| count(&st.regs.words[..live]) + st.leak_total;
    let mut before = score(st);
    for _pass in 0..4 {
        interpret(prog, st, ix, meta);
        let after = score(st);
        if after == before {
            break;
        }
        before = after;
    }
}

fn interpret(prog: &Program, st: &mut StateScratch, ix: u32, meta: MethodMeta) {
    let cs = prog.cs;
    for op in &cs.ops[meta.ops_start as usize..meta.ops_end as usize] {
        match *op {
            Op::Clear(dst) => st.regs.row_mut(dst).fill(0),
            Op::Copy { dst, src } => {
                let w = st.regs.w;
                let from = src as usize * w;
                st.regs.words.copy_within(from..from + w, dst as usize * w);
            }
            Op::FieldPut { field, src } => {
                if union(st.field_taint.row_mut(field), st.regs.row(src)) {
                    st.mark_all(cs.field_readers.row(field));
                }
            }
            Op::FieldGet { field, dst } => {
                union(st.regs.row_mut(dst), st.field_taint.row(field));
            }
            Op::Ret { src } => {
                if union(st.return_taint.row_mut(ix), st.regs.row(src)) {
                    st.mark_all(cs.callers_of.row(ix));
                }
            }
            Op::Invoke(i) => {
                let inv = cs.invokes[i as usize];
                st.arg.fill(0);
                let args =
                    &cs.arg_regs[inv.args_start as usize..(inv.args_start + inv.args_len) as usize];
                for &r in args {
                    union(&mut st.arg, st.regs.row(r));
                }
                if inv.source_label != NONE && inv.dst != NONE {
                    set(st.regs.row_mut(inv.dst), inv.source_label);
                }
                if inv.uri_label != NONE && inv.dst != NONE {
                    set(st.regs.row_mut(inv.dst), inv.uri_label);
                }
                if inv.icc_put != NONE && union(st.icc_taint.row_mut(inv.icc_put), &st.arg) {
                    st.mark_all(cs.channel_readers.row(inv.icc_put));
                }
                if inv.icc_get != NONE && inv.dst != NONE {
                    union(st.regs.row_mut(inv.dst), st.icc_taint.row(inv.icc_get));
                }
                if inv.sink_site != NONE {
                    let site = st.sink_leaks.row_mut(inv.sink_site);
                    let before = count(site);
                    if union(site, &st.arg) {
                        st.leak_total += count(site) - before;
                    }
                }
                if inv.call != NONE {
                    if union(st.param_taint.row_mut(inv.call), &st.arg) {
                        st.mark(inv.call);
                    }
                    if inv.dst != NONE {
                        union(st.regs.row_mut(inv.dst), st.return_taint.row(inv.call));
                    }
                } else if inv.taint_through && inv.dst != NONE {
                    union(st.regs.row_mut(inv.dst), &st.arg);
                }
            }
        }
    }
}

fn collect_leaks(prog: &Program, st: &StateScratch) -> Vec<Leak> {
    let mut out = Vec::with_capacity(st.leak_total);
    for (site, bits) in prog.cs.sites.iter().zip(st.sink_leaks.rows()) {
        if is_empty(bits) {
            continue;
        }
        let (at_class, at_method) = prog.apg.method_def(site.at_ix);
        let sink_api = format!("{}.{}", site.api.class, site.api.method);
        let at = format!("{}.{}", at_class.name, at_method.name);
        for bit in ones(bits) {
            let (info, source_api) = label_parts(&prog.cs.labels[bit as usize], &prog.cs.text);
            out.push(Leak {
                info,
                sink: site.api.kind,
                source_api,
                sink_api: sink_api.clone(),
                at_method: at.clone(),
            });
        }
    }
    // The reference engine's `BTreeSet` order. Distinct (label × site)
    // pairs can still spell one `Leak` when names contain dots (class
    // `a.b` method `c` vs class `a` method `b.c`), so dedup as the set
    // does.
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reach;
    use crate::taint::{analyze, analyze_reference};
    use crate::Rng;
    use ppchecker_apk::{Apk, ComponentKind, Dex, Manifest, MethodBuilder};
    use proptest::prelude::*;

    const SOURCES: &[(&str, &str)] = &[
        ("android.location.Location", "getLatitude"),
        ("android.telephony.TelephonyManager", "getDeviceId"),
        ("android.content.pm.PackageManager", "getInstalledPackages"),
        ("android.net.wifi.WifiInfo", "getMacAddress"),
    ];
    const SINKS: &[(&str, &str)] = &[
        ("android.util.Log", "d"),
        ("java.io.FileOutputStream", "write"),
        ("android.telephony.SmsManager", "sendTextMessage"),
    ];

    /// Emits a random instruction mix covering every op the kernel
    /// lowers: sources, sinks, moves, clears, fields, app calls, ICC
    /// put/get, query URIs, returns.
    fn random_body(rng: &mut Rng, m: &mut MethodBuilder, methods: &[(String, String)]) {
        let len = 2 + rng.below(10);
        for _ in 0..len {
            let a = rng.below(6) as Reg;
            let b = rng.below(6) as Reg;
            match rng.below(12) {
                0 => {
                    let (c, s) = SOURCES[rng.below(SOURCES.len() as u64) as usize];
                    m.invoke_virtual(c, s, &[a], Some(b));
                }
                1 => {
                    let (c, s) = SINKS[rng.below(SINKS.len() as u64) as usize];
                    m.invoke_static(c, s, &[a, b], None);
                }
                2 => {
                    m.mov(a, b);
                }
                3 => {
                    m.const_string(a, "overwrite");
                }
                4 => {
                    m.field_put("com.r.Main", if rng.below(2) == 0 { "f0" } else { "f1" }, a);
                }
                5 => {
                    m.field_get("com.r.Main", if rng.below(2) == 0 { "f0" } else { "f1" }, b);
                }
                6 => {
                    let (c, callee) = &methods[rng.below(methods.len() as u64) as usize];
                    m.invoke_virtual(c, callee, &[a], Some(b));
                }
                7 => {
                    m.invoke_virtual("java.lang.StringBuilder", "append", &[a, b], Some(a));
                }
                8 => {
                    m.new_instance(a, "java.lang.Object");
                }
                9 => {
                    m.const_string(a, "content://com.android.contacts");
                    m.invoke_virtual("android.content.ContentResolver", "query", &[b, a], Some(b));
                }
                10 => {
                    // ICC: put an extra for a random app class, read extras.
                    m.new_instance(4, "android.content.Intent");
                    let target = format!("com.r.C{}", rng.below(3));
                    m.const_string(5, &target);
                    m.invoke_virtual("android.content.Intent", "setClass", &[4, 0, 5], None);
                    m.invoke_virtual("android.content.Intent", "putExtra", &[4, 5, a], None);
                    m.invoke_virtual("android.content.Intent", "getStringExtra", &[4, 5], Some(b));
                }
                _ => {
                    m.ret(Some(a));
                }
            }
        }
    }

    /// A random app whose classes are each split over two declarations,
    /// sometimes with one `(class, method)` pair declared again with
    /// another body (which the first-declaration rule never reads).
    fn random_apk(seed: u64) -> Apk {
        let mut rng = Rng(seed);
        let n_classes = 2 + rng.below(3) as usize;
        let mut methods: Vec<(String, String)> = Vec::new();
        for ci in 0..n_classes {
            let class = format!("com.r.C{ci}");
            methods.push((class.clone(), "onCreate".into()));
            for mi in 0..(1 + rng.below(3)) {
                methods.push((class.clone(), format!("helper{mi}")));
            }
            methods.push((class.clone(), "onClick".into()));
        }
        let mut manifest = Manifest::new("com.r");
        manifest.add_component(ComponentKind::Activity, "com.r.C0", true);
        if n_classes > 1 {
            manifest.add_component(ComponentKind::Service, "com.r.C1", false);
        }
        let mut builder = Dex::builder();
        let mut by_class: Vec<(String, Vec<String>)> = Vec::new();
        for (c, m) in &methods {
            match by_class.iter_mut().find(|(name, _)| name == c) {
                Some((_, ms)) => ms.push(m.clone()),
                None => by_class.push((c.clone(), vec![m.clone()])),
            }
        }
        for (class, ms) in by_class {
            let cut = rng.below(ms.len() as u64 + 1) as usize;
            let mut second = ms[cut..].to_vec();
            if rng.below(2) == 0 {
                second.push(ms[rng.below(ms.len() as u64) as usize].clone());
            }
            for part in [ms[..cut].to_vec(), second] {
                let methods = methods.clone();
                let seed = rng.next();
                builder = builder.class(&class, |c| {
                    c.extends("android.app.Activity");
                    let mut inner = Rng(seed);
                    for m in part {
                        c.method(&m, 1 + inner.below(3) as u32, |mb| {
                            random_body(&mut inner, mb, &methods);
                        });
                    }
                });
            }
        }
        Apk::new(manifest, builder.build())
    }

    fn leaks_both_ways(apk: &Apk) -> (Vec<Leak>, Vec<Leak>) {
        let apg = Apg::build(apk).unwrap();
        let methods = reach::reachable_methods(&apg);
        (run(&apg, &methods), analyze_reference(&apg, &methods))
    }

    proptest! {
        /// Differential fuzz: the kernel's leak vector is byte-identical
        /// to the reference engine on randomly generated apps exercising
        /// every instruction kind and duplicate declarations.
        #[test]
        fn kernel_matches_reference_on_random_apps(seed in any::<u64>()) {
            let apk = random_apk(seed);
            let (kernel, reference) = leaks_both_ways(&apk);
            prop_assert_eq!(kernel, reference);
        }

        /// Differential: the bitset helpers (`union` with change
        /// detection, `set`, `ones`, `is_empty`, `count`) agree with
        /// per-word references on random bit patterns, at runtime widths
        /// of one, two, four and seven words.
        #[test]
        fn strip_mined_bits_match_reference(seed in any::<u64>()) {
            // AND two draws for sparse words; mix in a dense draw and an
            // all-zero word so the changed/empty edges hit.
            fn draw(rng: &mut Rng) -> u64 {
                match rng.below(4) {
                    0 => 0,
                    1 => rng.next(),
                    _ => rng.next() & rng.next(),
                }
            }
            let mut rng = Rng(seed);
            for _ in 0..64 {
                for w in [1usize, 2, 4, 7] {
                    assert_eq!(width(64 * w), w);
                    assert_eq!(width(64 * w + 1), w + 1);
                    let a: Vec<u64> = (0..w).map(|_| draw(&mut rng)).collect();
                    let b: Vec<u64> = (0..w).map(|_| draw(&mut rng)).collect();
                    let ref_count: usize = a.iter().map(|x| x.count_ones() as usize).sum();
                    let ref_changed = a.iter().zip(&b).any(|(&x, &y)| x | y != x);
                    let ref_union: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| x | y).collect();
                    assert_eq!(count(&a), ref_count);
                    assert_eq!(is_empty(&a), a.iter().all(|&x| x == 0));
                    let mut unioned = a.clone();
                    assert_eq!(union(&mut unioned, &b), ref_changed);
                    assert_eq!(unioned, ref_union);
                    // A second union of the same operand never reports change.
                    assert!(!union(&mut unioned, &b));
                    let mut rebuilt = vec![0u64; w];
                    for bit in ones(&unioned) {
                        assert!(set(&mut rebuilt, bit));
                        assert!(!set(&mut rebuilt, bit));
                    }
                    assert_eq!(rebuilt, unioned);
                }
            }
        }
    }

    fn reachable_leaks(apk: &Apk) -> Vec<Leak> {
        let apg = Apg::build(apk).unwrap();
        let methods = reach::reachable_methods(&apg);
        let leaks = analyze(&apg, &methods);
        assert_eq!(leaks, analyze_reference(&apg, &methods), "kernel diverged from reference");
        leaks
    }

    #[test]
    fn duplicate_method_declarations_keep_the_first() {
        // Two declarations of com.d.Main.go: the first owns the id, so
        // only its location leak exists; the second body's device-id leak
        // is never read, by the kernel or by the reference.
        let mut manifest = Manifest::new("com.d");
        manifest.add_component(ComponentKind::Activity, "com.d.Main", true);
        let dex = Dex::builder()
            .class("com.d.Main", |c| {
                c.method("onCreate", 1, |m| {
                    m.invoke_virtual("com.d.Main", "go", &[0], None);
                });
                c.method("go", 1, |m| {
                    m.invoke_virtual("android.location.Location", "getLatitude", &[0], Some(1));
                    m.invoke_static("android.util.Log", "d", &[1], None);
                });
                c.method("go", 1, |m| {
                    m.invoke_virtual(
                        "android.telephony.TelephonyManager",
                        "getDeviceId",
                        &[0],
                        Some(1),
                    );
                    m.invoke_static("android.util.Log", "d", &[1], None);
                });
            })
            .build();
        let leaks = reachable_leaks(&Apk::new(manifest, dex));
        assert_eq!(leaks.len(), 1, "{leaks:?}");
        assert_eq!(leaks[0].info, PrivateInfo::Location);
        assert_eq!(leaks[0].at_method, "com.d.Main.go");
    }

    #[test]
    fn class_declared_twice_contributes_the_methods_of_both_declarations() {
        // onCreate lives in the first declaration of com.d.Main, the
        // leaking onClick only in the second: it has its own id, and both
        // engines read its body.
        let mut manifest = Manifest::new("com.d");
        manifest.add_component(ComponentKind::Activity, "com.d.Main", true);
        let dex = Dex::builder()
            .class("com.d.Main", |c| {
                c.method("onCreate", 1, |_| {});
            })
            .class("com.d.Main", |c| {
                c.method("onClick", 1, |m| {
                    m.invoke_virtual("android.location.Location", "getLatitude", &[0], Some(1));
                    m.invoke_static("android.util.Log", "d", &[1], None);
                });
            })
            .build();
        let leaks = reachable_leaks(&Apk::new(manifest, dex));
        assert_eq!(leaks.len(), 1, "{leaks:?}");
        assert_eq!(leaks[0].at_method, "com.d.Main.onClick");
    }

    #[test]
    fn label_overflow_widens_the_bitsets() {
        // 300 distinct (info, witness) labels — via distinct sensitive URI
        // literals — need five-word bitsets; every label reaches the sink.
        let mut manifest = Manifest::new("com.o");
        manifest.add_component(ComponentKind::Activity, "com.o.Main", true);
        let dex = Dex::builder()
            .class("com.o.Main", |c| {
                c.method("onCreate", 1, |m| {
                    for i in 0..300u32 {
                        m.const_string(1, &format!("content://com.android.contacts/u{i}"));
                        m.invoke_virtual(
                            "android.content.ContentResolver",
                            "query",
                            &[0, 1],
                            Some(2),
                        );
                        m.invoke_static("android.util.Log", "i", &[2], None);
                    }
                });
            })
            .build();
        let leaks = reachable_leaks(&Apk::new(manifest, dex));
        assert_eq!(leaks.len(), 300);
        for i in 0..300u32 {
            let witness = format!("content://com.android.contacts/u{i}");
            assert!(leaks.iter().any(|l| l.source_api == witness), "no leak for {witness}");
        }
    }

    #[test]
    fn names_that_spell_one_leak_are_reported_once() {
        // Class `com.d.Main` method `x` and class `com.d` method `Main.x`
        // are two ids, but both sites spell `at_method` "com.d.Main.x".
        let mut manifest = Manifest::new("com.d");
        manifest.add_component(ComponentKind::Activity, "com.d.Main", true);
        let dex = Dex::builder()
            .class("com.d.Main", |c| {
                c.method("onCreate", 1, |m| {
                    m.invoke_virtual("android.location.Location", "getLatitude", &[0], Some(1));
                    m.invoke_virtual("com.d.Main", "x", &[1], None);
                    m.invoke_virtual("com.d", "Main.x", &[1], None);
                });
                c.method("x", 1, |m| {
                    m.invoke_static("android.util.Log", "d", &[0], None);
                });
            })
            .class("com.d", |c| {
                c.method("Main.x", 1, |m| {
                    m.invoke_static("android.util.Log", "d", &[0], None);
                });
            })
            .build();
        let leaks = reachable_leaks(&Apk::new(manifest, dex));
        assert_eq!(leaks.len(), 1, "{leaks:?}");
    }

    /// Device id → `r1` → `r2` → Log and into `save`, whose body only
    /// touches register 0 and writes it to a file.
    fn registers_app(r1: Reg, r2: Reg, save_params: u32) -> Apk {
        let mut manifest = Manifest::new("com.g");
        manifest.add_component(ComponentKind::Activity, "com.g.Main", true);
        let dex = Dex::builder()
            .class("com.g.Main", |c| {
                c.method("onCreate", 1, |m| {
                    m.invoke_virtual(
                        "android.telephony.TelephonyManager",
                        "getDeviceId",
                        &[0],
                        Some(r1),
                    );
                    m.mov(r2, r1);
                    m.invoke_virtual("com.g.Main", "save", &[r2], None);
                    m.invoke_static("android.util.Log", "d", &[r2], None);
                });
                c.method("save", save_params, |m| {
                    m.invoke_virtual("java.io.FileOutputStream", "write", &[0], None);
                });
            })
            .build();
        Apk::new(manifest, dex)
    }

    #[test]
    fn register_numbers_and_param_counts_do_not_size_state() {
        let small = reachable_leaks(&registers_app(1, 2, 1));
        assert_eq!(small.len(), 2, "{small:?}");
        let huge = reachable_leaks(&registers_app(u32::MAX, 3_000_000_000, u32::MAX));
        assert_eq!(huge, small);
    }

    /// An app embedding an admob-prefixed SDK that the app calls: the
    /// SDK's entry method reads the device id, hands it to a lib-internal
    /// method that writes it to a file, and returns it to the app, which
    /// logs it.
    fn lib_app(package: &str) -> Apk {
        let mut manifest = Manifest::new(package);
        let main = format!("{package}.Main");
        manifest.add_component(ComponentKind::Activity, &main, true);
        let dex = Dex::builder()
            .class("com.google.android.gms.ads.Sdk", |c| {
                c.method("init", 1, |m| {
                    m.invoke_virtual(
                        "android.telephony.TelephonyManager",
                        "getDeviceId",
                        &[0],
                        Some(1),
                    );
                    m.invoke_virtual("com.google.android.gms.ads.Sdk", "upload", &[1], None);
                    m.ret(Some(1));
                });
                c.method("upload", 1, |m| {
                    m.invoke_virtual("java.io.FileOutputStream", "write", &[0], None);
                });
            })
            .class(&main, |c| {
                c.extends("android.app.Activity");
                c.method("onCreate", 1, |m| {
                    m.invoke_virtual("com.google.android.gms.ads.Sdk", "init", &[0], Some(1));
                    m.invoke_static("android.util.Log", "d", &[1], None);
                });
            })
            .build();
        Apk::new(manifest, dex)
    }

    #[test]
    fn reachable_lib_code_leaks_through_lib_calls_and_returns() {
        // The paper corpus never reaches its embedded lib code, so this
        // is the case where both engines interpret lib methods.
        for package in ["com.first", "com.second", "com.third"] {
            let leaks = reachable_leaks(&lib_app(package));
            let mut sites: Vec<(PrivateInfo, &str, &str)> =
                leaks.iter().map(|l| (l.info, l.sink_api.as_str(), l.at_method.as_str())).collect();
            sites.sort_unstable();
            let main = format!("{package}.Main.onCreate");
            let mut expected = vec![
                (PrivateInfo::DeviceId, "android.util.Log.d", main.as_str()),
                (
                    PrivateInfo::DeviceId,
                    "java.io.FileOutputStream.write",
                    "com.google.android.gms.ads.Sdk.upload",
                ),
            ];
            expected.sort_unstable();
            assert_eq!(sites, expected);
        }
    }
}
