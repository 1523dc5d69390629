//! Dense-ID bitset taint kernel.
//!
//! A drop-in replacement for the reference taint engine in
//! [`crate::taint`] that computes the identical leak set (the corpus
//! equivalence suite asserts byte-identical output) without touching a
//! string or allocating inside the fixpoint:
//!
//! * **Compile once, allocate never** — every in-scope method body is
//!   lowered in a single pass to a flat op stream over `u32` ids: taint
//!   labels, `(class, field)` pairs, ICC channels, sink sites and call
//!   targets are all interned as they are first seen, so the hot loop
//!   never hashes a string or probes a `HashMap`. All compile output
//!   lives in thread-local scratch buffers that are cleared and reused
//!   across apps — the interning tables hold static-table pointers and
//!   dex locators rather than owned strings — so steady-state analysis
//!   performs no heap allocation; witness strings are materialized only
//!   when a leak is reported.
//! * **Bitset taint** — a taint set becomes `[u64; W]` words
//!   (monomorphized for W = 1/2/4 ⇒ up to 64/128/256 distinct labels);
//!   union, test and population count are plain per-word loops. Apps with
//!   more labels, or dexes with duplicate `(class, method)` declarations
//!   (where name resolution is ambiguous), fall back to the reference
//!   engine.
//! * **Dirty-bit worklist** — instead of re-sweeping every method each
//!   global round, a FIFO worklist re-processes only methods whose
//!   inputs (parameter, field, return or ICC-channel taint) actually
//!   grew. Dependency lists are CSR slices built by one sort per app.
//!   Both engines drive the same monotone transfer function to its least
//!   fixpoint, so the result is order-independent.
//! * **Library summaries** — with a [`TaintSummaryCache`], the
//!   first-iteration contribution of each known-lib method is keyed by
//!   the lib's content hash and replayed into later apps embedding the
//!   identical classes (see [`crate::summary`]).
//!
//! See DESIGN.md §11 for the equivalence and soundness arguments.

use crate::apg::Apg;
use crate::consts::{self, UriValue};
use crate::graph::NodeId;
use crate::sensitive::{self, SensitiveApi};
use crate::sinks::{self, SinkApi};
use crate::summary::{LibSummary, MethodSummary, NamedLabel, SummaryLeak, TaintSummaryCache};
use crate::taint::{intent_targets, Leak};
use crate::uris;
use ppchecker_apk::{Class, Insn, PrivateInfo, Reg};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet, VecDeque};

/// Sentinel for "no id" in packed op fields.
const NONE: u32 = u32::MAX;

/// Labels beyond this fall back to the reference engine.
const MAX_LABELS: usize = 256;

thread_local! {
    /// Compile output, cleared and reused across apps on this thread.
    static COMPILE: RefCell<CompileScratch> = const { RefCell::new(CompileScratch::new()) };
    /// Fixpoint state per bitset width, likewise reused.
    static STATE1: RefCell<StateScratch<1>> = const { RefCell::new(StateScratch::new()) };
    static STATE2: RefCell<StateScratch<2>> = const { RefCell::new(StateScratch::new()) };
    static STATE4: RefCell<StateScratch<4>> = const { RefCell::new(StateScratch::new()) };
}

/// Runs the kernel, or returns `None` when the app is outside its
/// supported envelope (duplicate method declarations, > 256 labels).
pub(crate) fn run(
    apg: &Apg,
    methods: &HashSet<NodeId>,
    cache: Option<&TaintSummaryCache>,
) -> Option<Vec<Leak>> {
    if apg.has_duplicate_methods() {
        return None;
    }
    COMPILE.with(|cell| {
        let mut cs = cell.borrow_mut();
        {
            let _span = ppchecker_obs::span!("taint.compile");
            compile(apg, methods, &mut cs)?;
        }
        let cs = &*cs;
        let prog = Program { apg, cs };
        let _span = ppchecker_obs::span!("taint.fixpoint");
        Some(match cs.labels.len() {
            0..=64 => STATE1.with(|s| exec::<1>(&prog, cache, &mut s.borrow_mut())),
            65..=128 => STATE2.with(|s| exec::<2>(&prog, cache, &mut s.borrow_mut())),
            _ => STATE4.with(|s| exec::<4>(&prog, cache, &mut s.borrow_mut())),
        })
    })
}

// ---------------------------------------------------------------------------
// Bitset
// ---------------------------------------------------------------------------

/// Fixed-width taint bitset: bit *i* = label *i* present.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Bits<const W: usize>([u64; W]);

impl<const W: usize> Bits<W> {
    const EMPTY: Self = Bits([0u64; W]);

    #[inline]
    fn set(&mut self, bit: u32) {
        self.0[(bit / 64) as usize] |= 1u64 << (bit % 64);
    }

    /// Unions `other` in; true if any new bit arrived.
    #[inline]
    fn or(&mut self, other: &Self) -> bool {
        let mut changed = 0u64;
        for (word, &add) in self.0.iter_mut().zip(&other.0) {
            changed |= add & !*word;
            *word |= add;
        }
        changed != 0
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.0.iter().all(|&word| word == 0)
    }

    #[inline]
    fn count(&self) -> u32 {
        self.0.iter().map(|word| word.count_ones()).sum()
    }

    /// Indexes of set bits, ascending.
    fn ones(&self) -> impl Iterator<Item = u32> + '_ {
        self.0.iter().enumerate().flat_map(|(wi, &word)| {
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
}

// ---------------------------------------------------------------------------
// Compiled program
// ---------------------------------------------------------------------------

/// One lowered instruction. Register-only ops inline their operands;
/// invokes index the side table in [`CompileScratch::invokes`].
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
    /// Destination register or [`NONE`].
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
    /// In-scope app call target (method ix), or [`NONE`].
    call: u32,
    /// Framework call: result carries argument taint.
    taint_through: bool,
}

/// Where one compiled body lives in the flat op stream.
#[derive(Debug, Clone, Copy, Default)]
struct MethodMeta {
    ops_start: u32,
    ops_end: u32,
    /// Registers used (≥ `param_count`).
    reg_count: u32,
    param_count: u32,
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
/// URI labels own the witness string the reference engine would emit.
#[derive(Debug, Clone)]
enum LabelRef {
    Api(&'static SensitiveApi),
    Uri { info: PrivateInfo, src: String },
}

/// A sink call site: static table entry × dense method ix. With
/// duplicate declarations excluded, this bijects onto the reference
/// engine's `(sink_api, at_method)` witness strings, so (label × site)
/// pairs biject onto its deduplicated `Leak` set.
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
/// hold `&'static` table pointers, and fields are `(method ix,
/// instruction index)` locators into the dex instead of owned strings.
#[derive(Debug)]
struct CompileScratch {
    in_scope: Vec<bool>,
    /// In-scope method ixs, ascending.
    scope_ixs: Vec<u32>,
    metas: Vec<MethodMeta>,
    ops: Vec<Op>,
    invokes: Vec<InvokeOp>,
    arg_regs: Vec<Reg>,
    labels: Vec<LabelRef>,
    sites: Vec<SiteRef>,
    /// ICC channel names (owned: put targets come from const-string
    /// tracking temporaries; channels are rare).
    channels: Vec<String>,
    /// `(class, field)` pairs as dex locators; resolve via [`field_at`].
    fields: Vec<(u32, u32)>,
    field_pairs: Vec<(u32, u32)>,
    caller_pairs: Vec<(u32, u32)>,
    channel_pairs: Vec<(u32, u32)>,
    /// field id → in-scope methods with a `FieldGet` of it.
    field_readers: Csr,
    /// method ix → in-scope callers.
    callers_of: Csr,
    /// channel id → in-scope methods with a `get*Extra` on it.
    channel_readers: Csr,
    /// Write-tracking scratch for the single-pass check (one entry per
    /// register / field / channel, reused across methods).
    wr_regs: Vec<bool>,
    wr_fields: Vec<bool>,
    wr_chans: Vec<bool>,
    /// Largest `reg_count` (scratch sizing).
    max_regs: u32,
    /// Total dense methods in the app (indexable tables).
    method_total: usize,
}

impl CompileScratch {
    const fn new() -> Self {
        CompileScratch {
            in_scope: Vec::new(),
            scope_ixs: Vec::new(),
            metas: Vec::new(),
            ops: Vec::new(),
            invokes: Vec::new(),
            arg_regs: Vec::new(),
            labels: Vec::new(),
            sites: Vec::new(),
            channels: Vec::new(),
            fields: Vec::new(),
            field_pairs: Vec::new(),
            caller_pairs: Vec::new(),
            channel_pairs: Vec::new(),
            field_readers: Csr::new(),
            callers_of: Csr::new(),
            channel_readers: Csr::new(),
            wr_regs: Vec::new(),
            wr_fields: Vec::new(),
            wr_chans: Vec::new(),
            max_regs: 0,
            method_total: 0,
        }
    }
}

/// Everything the fixpoint needs, borrowed together.
struct Program<'a, 's> {
    apg: &'a Apg,
    cs: &'s CompileScratch,
}

/// The `(class, field)` strings behind a field locator.
fn field_at(apg: &Apg, ix: u32, idx: u32) -> (&str, &str) {
    match &apg.method_def(ix).1.instructions[idx as usize] {
        Insn::FieldPut { class, field, .. } | Insn::FieldGet { class, field, .. } => {
            (class.as_str(), field.as_str())
        }
        _ => unreachable!("field locator points at a field instruction"),
    }
}

/// Single-pass lowering of every in-scope body into `cs`. Returns `None`
/// past the label budget.
fn compile(apg: &Apg, methods: &HashSet<NodeId>, cs: &mut CompileScratch) -> Option<()> {
    let method_total = apg.method_count();
    cs.method_total = method_total;
    cs.max_regs = 0;
    cs.in_scope.clear();
    cs.in_scope.resize(method_total, false);
    cs.scope_ixs.clear();
    cs.scope_ixs.extend(methods.iter().filter_map(|&m| apg.method_ix(m)));
    cs.scope_ixs.sort_unstable();
    for &ix in &cs.scope_ixs {
        cs.in_scope[ix as usize] = true;
    }
    cs.metas.clear();
    cs.metas.resize(method_total, MethodMeta::default());
    cs.ops.clear();
    cs.invokes.clear();
    cs.arg_regs.clear();
    cs.labels.clear();
    cs.sites.clear();
    cs.channels.clear();
    cs.fields.clear();
    cs.field_pairs.clear();
    cs.caller_pairs.clear();
    cs.channel_pairs.clear();

    // Detach the scope list so `cs` stays mutably borrowable per method.
    let scope = std::mem::take(&mut cs.scope_ixs);
    for &ix in &scope {
        compile_method(apg, ix, cs);
    }
    cs.scope_ixs = scope;

    if cs.labels.len() > MAX_LABELS {
        return None;
    }

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
    Some(())
}

fn compile_method(apg: &Apg, ix: u32, cs: &mut CompileScratch) {
    let (class, method) = apg.method_def(ix);
    let class_name = class.name.as_str();

    // Cheap pre-scan so the two per-method body analyses (const-string
    // intent-target tracking and query-URI resolution) only run on the
    // rare methods that can actually use their results.
    let mut has_put_extra = false;
    let mut has_query = false;
    for insn in &method.instructions {
        if let Insn::Invoke { class: c, method: m, .. } = insn {
            has_put_extra |= c == "android.content.Intent" && m == "putExtra";
            has_query |= consts::is_query_call(c, m);
        }
    }
    let targets = if has_put_extra { intent_targets(method) } else { HashMap::new() };
    let query_uris = if has_query { consts::query_sites(method) } else { Vec::new() };

    let param_count = method.param_count;
    let mut reg_count = param_count;
    let mut touch = |r: Reg| {
        if r + 1 > reg_count {
            reg_count = r + 1;
        }
    };
    let ops_start = cs.ops.len() as u32;
    for (idx, insn) in method.instructions.iter().enumerate() {
        match insn {
            Insn::ConstString { dst, .. } | Insn::NewInstance { dst, .. } => {
                touch(*dst);
                cs.ops.push(Op::Clear(*dst));
            }
            Insn::Move { dst, src } => {
                touch(*dst);
                touch(*src);
                cs.ops.push(Op::Copy { dst: *dst, src: *src });
            }
            Insn::FieldPut { src, .. } => {
                touch(*src);
                let field = intern_field(apg, cs, ix, idx as u32);
                cs.ops.push(Op::FieldPut { field, src: *src });
            }
            Insn::FieldGet { dst, .. } => {
                touch(*dst);
                let field = intern_field(apg, cs, ix, idx as u32);
                cs.field_pairs.push((field, ix));
                cs.ops.push(Op::FieldGet { field, dst: *dst });
            }
            Insn::Return { src: Some(s) } => {
                touch(*s);
                cs.ops.push(Op::Ret { src: *s });
            }
            Insn::Invoke { class: c, method: m, args, dst, .. } => {
                for &a in args.iter() {
                    touch(a);
                }
                if let Some(d) = dst {
                    touch(*d);
                }
                let args_start = cs.arg_regs.len() as u32;
                cs.arg_regs.extend_from_slice(args);

                let source_label =
                    sensitive::lookup(c, m).map(|api| intern_label_api(cs, api)).unwrap_or(NONE);
                let uri_label = if has_query {
                    query_uris
                        .iter()
                        .find(|(i, _)| *i == idx)
                        .and_then(|(_, uri)| uri_parts(uri))
                        .map(|(info, src)| intern_label_uri(cs, info, src))
                        .unwrap_or(NONE)
                } else {
                    NONE
                };

                let mut icc_put = NONE;
                let mut icc_get = NONE;
                if c == "android.content.Intent" {
                    if m == "putExtra" {
                        if let Some(target) = args.first().and_then(|r| targets.get(r)) {
                            icc_put = intern_channel(cs, target);
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
                    Some(t) if cs.in_scope[t as usize] => {
                        call = t;
                        cs.caller_pairs.push((t, ix));
                    }
                    Some(_) => {} // app method out of scope: no flow
                    None => taint_through = true,
                }

                let inv = InvokeOp {
                    args_start,
                    args_len: args.len() as u32,
                    dst: dst.unwrap_or(NONE),
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
    cs.max_regs = cs.max_regs.max(reg_count);
    let single_pass = is_single_pass(cs, ops_start as usize, ix, reg_count);
    cs.metas[ix as usize] = MethodMeta {
        ops_start,
        ops_end: cs.ops.len() as u32,
        reg_count,
        param_count,
        compiled: true,
        single_pass,
    };
}

/// Backward scan over a freshly lowered body: true when no op reads a
/// register, field, or ICC channel that a later op writes, and the body
/// never invokes itself. For such bodies a second interpretation pass
/// sees every input unchanged (unions are idempotent, clears and copies
/// recompute the same values), so one pass is the local fixpoint.
fn is_single_pass(cs: &mut CompileScratch, ops_start: usize, ix: u32, reg_count: u32) -> bool {
    let CompileScratch {
        ops,
        invokes,
        arg_regs,
        fields,
        channels,
        wr_regs,
        wr_fields,
        wr_chans,
        ..
    } = cs;
    wr_regs.clear();
    wr_regs.resize(reg_count as usize, false);
    wr_fields.clear();
    wr_fields.resize(fields.len(), false);
    wr_chans.clear();
    wr_chans.resize(channels.len(), false);
    for op in ops[ops_start..].iter().rev() {
        // Check this op's reads against everything written after it,
        // *then* record its own writes.
        match *op {
            Op::Clear(dst) => wr_regs[dst as usize] = true,
            Op::Copy { dst, src } => {
                if wr_regs[src as usize] {
                    return false;
                }
                wr_regs[dst as usize] = true;
            }
            Op::FieldPut { field, src } => {
                if wr_regs[src as usize] {
                    return false;
                }
                wr_fields[field as usize] = true;
            }
            Op::FieldGet { field, dst } => {
                if wr_fields[field as usize] {
                    return false;
                }
                wr_regs[dst as usize] = true;
            }
            Op::Ret { src } => {
                if wr_regs[src as usize] {
                    return false;
                }
            }
            Op::Invoke(i) => {
                let inv = invokes[i as usize];
                let args =
                    &arg_regs[inv.args_start as usize..(inv.args_start + inv.args_len) as usize];
                if args.iter().any(|&r| wr_regs[r as usize]) {
                    return false;
                }
                if inv.icc_get != NONE && wr_chans[inv.icc_get as usize] {
                    return false;
                }
                if inv.call == ix {
                    return false; // self-recursion: return feeds back in
                }
                if inv.dst != NONE {
                    wr_regs[inv.dst as usize] = true;
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

fn intern_label_uri(cs: &mut CompileScratch, info: PrivateInfo, src: &str) -> u32 {
    if let Some(id) = cs
        .labels
        .iter()
        .position(|l| matches!(l, LabelRef::Uri { info: i, src: s } if *i == info && s == src))
    {
        return id as u32;
    }
    cs.labels.push(LabelRef::Uri { info, src: src.to_string() });
    (cs.labels.len() - 1) as u32
}

fn intern_channel(cs: &mut CompileScratch, name: &str) -> u32 {
    if let Some(id) = cs.channels.iter().position(|c| c == name) {
        return id as u32;
    }
    cs.channels.push(name.to_string());
    (cs.channels.len() - 1) as u32
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

/// Resolves a query-site URI to `(info, witness)`, mirroring the
/// reference engine's witness strings.
fn uri_parts(uri: &UriValue) -> Option<(PrivateInfo, &str)> {
    match uri {
        UriValue::Literal(s) => uris::match_uri_string(s).map(|u| (u.info, s.as_str())),
        UriValue::Field(f) => uris::match_uri_field(f).map(|u| (u.info, f.as_str())),
    }
}

/// Materializes a label's `(info, source_api)` exactly as the reference
/// engine spells it.
fn label_parts(label: &LabelRef) -> (PrivateInfo, String) {
    match label {
        LabelRef::Api(api) => (api.info, format!("{}.{}", api.class, api.method)),
        LabelRef::Uri { info, src } => (*info, src.clone()),
    }
}

/// An interned label in the summary's app-independent form: table
/// pointers stay pointers, URI witnesses are cloned.
fn named_of(label: &LabelRef) -> NamedLabel {
    match label {
        LabelRef::Api(api) => NamedLabel::Api(api),
        LabelRef::Uri { info, src } => NamedLabel::Uri { info: *info, src: src.clone() },
    }
}

/// Equality between an interned label and a summary label: pointer
/// comparison for table-sourced labels (both sides intern out of the
/// same static table), content comparison for URI witnesses.
fn label_matches(label: &LabelRef, nl: &NamedLabel) -> bool {
    match (label, nl) {
        (LabelRef::Api(a), NamedLabel::Api(b)) => std::ptr::eq(*a, *b),
        (LabelRef::Uri { info, src }, NamedLabel::Uri { info: i, src: s }) => info == i && src == s,
        _ => false,
    }
}

/// Equality between an interned sink site and a summary leak's site:
/// sink-table pointer plus the declaring `(class, method)` names.
fn site_matches(prog: &Program, site: &SiteRef, sl: &SummaryLeak) -> bool {
    if !std::ptr::eq(site.api, sl.api) {
        return false;
    }
    let (class, method) = prog.apg.method_def(site.at_ix);
    class.name == sl.at_class && method.name == sl.at_method
}

// ---------------------------------------------------------------------------
// Fixpoint state
// ---------------------------------------------------------------------------

/// Flat bitset tables + the dirty worklist, cleared and reused across
/// apps (capacity retained).
#[derive(Debug)]
struct StateScratch<const W: usize> {
    regs: Vec<Bits<W>>,
    field_taint: Vec<Bits<W>>,
    param_taint: Vec<Bits<W>>,
    return_taint: Vec<Bits<W>>,
    icc_taint: Vec<Bits<W>>,
    /// site id → labels that reached it; `leak_total` tracks Σ popcount
    /// so the local stopping rule can mirror the reference's
    /// `leaks.len()` term exactly.
    sink_leaks: Vec<Bits<W>>,
    leak_total: usize,
    dirty: Vec<bool>,
    /// Methods seeded from a summary: their initial processing is elided.
    skip: Vec<bool>,
    queue: VecDeque<u32>,
    /// Staging area for summary application (reused across methods).
    pend: Pend<W>,
}

/// One method summary's contributions, translated into dense ids and
/// staged here before any state mutation — so a summary that fails
/// validation halfway leaves no trace, and replaying summaries performs
/// no allocation in the steady state.
#[derive(Debug)]
struct Pend<const W: usize> {
    ret: Bits<W>,
    fields: Vec<(u32, Bits<W>)>,
    params: Vec<(u32, Bits<W>)>,
    channels: Vec<(u32, Bits<W>)>,
    leaks: Vec<(u32, u32)>,
}

impl<const W: usize> Pend<W> {
    const fn new() -> Self {
        Pend {
            ret: Bits::EMPTY,
            fields: Vec::new(),
            params: Vec::new(),
            channels: Vec::new(),
            leaks: Vec::new(),
        }
    }
}

impl<const W: usize> Default for Pend<W> {
    fn default() -> Self {
        Pend::new()
    }
}

impl<const W: usize> StateScratch<W> {
    const fn new() -> Self {
        StateScratch {
            regs: Vec::new(),
            field_taint: Vec::new(),
            param_taint: Vec::new(),
            return_taint: Vec::new(),
            icc_taint: Vec::new(),
            sink_leaks: Vec::new(),
            leak_total: 0,
            dirty: Vec::new(),
            skip: Vec::new(),
            queue: VecDeque::new(),
            pend: Pend::new(),
        }
    }

    fn reset(&mut self, prog: &Program) {
        let cs = prog.cs;
        self.regs.clear();
        self.regs.resize(cs.max_regs as usize, Bits::EMPTY);
        self.field_taint.clear();
        self.field_taint.resize(cs.fields.len(), Bits::EMPTY);
        self.param_taint.clear();
        self.param_taint.resize(cs.method_total, Bits::EMPTY);
        self.return_taint.clear();
        self.return_taint.resize(cs.method_total, Bits::EMPTY);
        self.icc_taint.clear();
        self.icc_taint.resize(cs.channels.len(), Bits::EMPTY);
        self.sink_leaks.clear();
        self.sink_leaks.resize(cs.sites.len(), Bits::EMPTY);
        self.leak_total = 0;
        self.dirty.clear();
        self.dirty.resize(cs.method_total, false);
        self.skip.clear();
        self.skip.resize(cs.method_total, false);
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

fn exec<const W: usize>(
    prog: &Program,
    cache: Option<&TaintSummaryCache>,
    st: &mut StateScratch<W>,
) -> Vec<Leak> {
    st.reset(prog);
    if let Some(cache) = cache {
        let _span = ppchecker_obs::span!("taint.summary_replay");
        seed_from_summaries(prog, st, cache);
    }
    for &ix in &prog.cs.scope_ixs {
        if !st.skip[ix as usize] {
            st.mark(ix);
        }
    }
    while let Some(ix) = st.queue.pop_front() {
        st.dirty[ix as usize] = false;
        process(prog, st, ix);
    }
    collect_leaks(prog, st)
}

/// One application of the method transfer function: reset registers,
/// seed parameters, interpret up to 4 local passes with the reference
/// engine's exact stopping rule (Σ register popcount + leak count).
fn process<const W: usize>(prog: &Program, st: &mut StateScratch<W>, ix: u32) {
    let meta = prog.cs.metas[ix as usize];
    if !meta.compiled {
        return;
    }
    let reg_count = meta.reg_count as usize;
    for r in &mut st.regs[..reg_count] {
        *r = Bits::EMPTY;
    }
    let incoming = st.param_taint[ix as usize];
    if !incoming.is_empty() {
        for r in &mut st.regs[..meta.param_count as usize] {
            *r = incoming;
        }
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
    // before the next — compute it once per pass.
    let mut before =
        st.regs[..reg_count].iter().map(|b| b.count() as usize).sum::<usize>() + st.leak_total;
    for _pass in 0..4 {
        interpret(prog, st, ix, meta);
        let after =
            st.regs[..reg_count].iter().map(|b| b.count() as usize).sum::<usize>() + st.leak_total;
        if after == before {
            break;
        }
        before = after;
    }
}

fn interpret<const W: usize>(prog: &Program, st: &mut StateScratch<W>, ix: u32, meta: MethodMeta) {
    let cs = prog.cs;
    for op in &cs.ops[meta.ops_start as usize..meta.ops_end as usize] {
        match *op {
            Op::Clear(dst) => st.regs[dst as usize] = Bits::EMPTY,
            Op::Copy { dst, src } => st.regs[dst as usize] = st.regs[src as usize],
            Op::FieldPut { field, src } => {
                let t = st.regs[src as usize];
                if !t.is_empty() && st.field_taint[field as usize].or(&t) {
                    st.mark_all(cs.field_readers.row(field));
                }
            }
            Op::FieldGet { field, dst } => {
                let t = st.field_taint[field as usize];
                if !t.is_empty() {
                    st.regs[dst as usize].or(&t);
                }
            }
            Op::Ret { src } => {
                let t = st.regs[src as usize];
                if !t.is_empty() && st.return_taint[ix as usize].or(&t) {
                    st.mark_all(cs.callers_of.row(ix));
                }
            }
            Op::Invoke(i) => {
                let inv = cs.invokes[i as usize];
                let mut arg = Bits::<W>::EMPTY;
                let args =
                    &cs.arg_regs[inv.args_start as usize..(inv.args_start + inv.args_len) as usize];
                for &r in args {
                    arg.or(&st.regs[r as usize]);
                }
                if inv.source_label != NONE && inv.dst != NONE {
                    st.regs[inv.dst as usize].set(inv.source_label);
                }
                if inv.uri_label != NONE && inv.dst != NONE {
                    st.regs[inv.dst as usize].set(inv.uri_label);
                }
                if inv.icc_put != NONE
                    && !arg.is_empty()
                    && st.icc_taint[inv.icc_put as usize].or(&arg)
                {
                    st.mark_all(cs.channel_readers.row(inv.icc_put));
                }
                if inv.icc_get != NONE && inv.dst != NONE {
                    let t = st.icc_taint[inv.icc_get as usize];
                    if !t.is_empty() {
                        st.regs[inv.dst as usize].or(&t);
                    }
                }
                if inv.sink_site != NONE && !arg.is_empty() {
                    let site = &mut st.sink_leaks[inv.sink_site as usize];
                    let before = site.count();
                    site.or(&arg);
                    st.leak_total += (site.count() - before) as usize;
                }
                let mut returned = Bits::<W>::EMPTY;
                if inv.call != NONE {
                    if !arg.is_empty() && st.param_taint[inv.call as usize].or(&arg) {
                        st.mark(inv.call);
                    }
                    returned = st.return_taint[inv.call as usize];
                } else if inv.taint_through {
                    returned = arg;
                }
                if inv.dst != NONE && !returned.is_empty() {
                    st.regs[inv.dst as usize].or(&returned);
                }
            }
        }
    }
}

fn collect_leaks<const W: usize>(prog: &Program, st: &StateScratch<W>) -> Vec<Leak> {
    let mut out = Vec::with_capacity(st.leak_total);
    for (sid, bits) in st.sink_leaks.iter().enumerate() {
        if bits.is_empty() {
            continue;
        }
        let site = &prog.cs.sites[sid];
        let (at_class, at_method) = prog.apg.method_def(site.at_ix);
        let sink_api = format!("{}.{}", site.api.class, site.api.method);
        let at = format!("{}.{}", at_class.name, at_method.name);
        for bit in bits.ones() {
            let (info, source_api) = label_parts(&prog.cs.labels[bit as usize]);
            out.push(Leak {
                info,
                sink: site.api.kind,
                source_api,
                sink_api: sink_api.clone(),
                at_method: at.clone(),
            });
        }
    }
    // (label × site) pairs are unique by interning, so this sort yields
    // exactly the reference engine's BTreeSet iteration order.
    out.sort_unstable();
    out
}

// ---------------------------------------------------------------------------
// Library summaries
// ---------------------------------------------------------------------------

/// For every known lib embedded in the app: on a cache hit, replay the
/// summary into the state (marking summarized methods skippable); on a
/// miss, compute `F_m(∅)` for each in-scope lib method and store it.
fn seed_from_summaries<const W: usize>(
    prog: &Program,
    st: &mut StateScratch<W>,
    cache: &TaintSummaryCache,
) {
    for &(lib, key) in prog.apg.known_lib_keys() {
        match cache.get(key) {
            Some(summary) => {
                // The summaries assumed their external calls hit the
                // framework; if any resolves to an app method here,
                // first-iteration semantics differ — process the whole
                // lib normally (one check per app, not per method).
                if summary.external_calls.iter().any(|(c, m)| prog.apg.lookup_ix(c, m).is_some()) {
                    continue;
                }
                for ms in &summary.methods {
                    apply_method_summary(prog, st, ms);
                }
            }
            None => {
                // Only the first app with this lib content pays for the
                // class walk; hits above never touch the dex.
                let mut classes: Vec<&Class> = prog
                    .apg
                    .dex
                    .classes
                    .iter()
                    .filter(|c| c.name.starts_with(lib.prefix))
                    .collect();
                classes.sort_by(|a, b| a.name.cmp(&b.name));
                let summary = compute_lib_summary::<W>(prog, &classes);
                cache.insert(key, summary);
            }
        }
    }
}

/// Validates and replays one method summary. Every contribution goes
/// through the same grow-and-dirty paths as live interpretation, so
/// downstream methods (including other summarized ones) are re-queued
/// when their inputs grow beyond ∅. Any validation failure leaves the
/// method un-skipped — it is simply processed normally.
fn apply_method_summary<const W: usize>(
    prog: &Program,
    st: &mut StateScratch<W>,
    ms: &MethodSummary,
) {
    let Some(ix) = prog.apg.lookup_ix(&ms.class, &ms.method) else { return };
    if !prog.cs.in_scope[ix as usize] {
        return; // never processed in this app; contributions would be unsound
    }

    // Stage the translated contributions into reusable scratch; a
    // summary that fails validation halfway mutates nothing.
    let cs = prog.cs;
    let mut pend = std::mem::take(&mut st.pend);
    if !stage_summary(prog, ms, &mut pend) {
        st.pend = pend;
        return;
    }

    // Apply through the dirty-marking grow paths.
    if !pend.ret.is_empty() && st.return_taint[ix as usize].or(&pend.ret) {
        st.mark_all(cs.callers_of.row(ix));
    }
    for &(fid, ref bits) in &pend.fields {
        if st.field_taint[fid as usize].or(bits) {
            st.mark_all(cs.field_readers.row(fid));
        }
    }
    for &(t, ref bits) in &pend.params {
        if st.param_taint[t as usize].or(bits) {
            st.mark(t);
        }
    }
    for &(ch, ref bits) in &pend.channels {
        if st.icc_taint[ch as usize].or(bits) {
            st.mark_all(cs.channel_readers.row(ch));
        }
    }
    for &(sid, lid) in &pend.leaks {
        let site = &mut st.sink_leaks[sid as usize];
        let before = site.count();
        site.set(lid);
        st.leak_total += (site.count() - before) as usize;
    }
    st.pend = pend;
    st.skip[ix as usize] = true;
}

/// Translates one method summary into dense ids, clearing and filling
/// `pend`. Returns false — staging incomplete, nothing to apply — if any
/// name fails to resolve against this app's interned tables. All
/// matching is by content; no strings are built.
fn stage_summary<const W: usize>(prog: &Program, ms: &MethodSummary, pend: &mut Pend<W>) -> bool {
    let cs = prog.cs;
    pend.fields.clear();
    pend.params.clear();
    pend.channels.clear();
    pend.leaks.clear();
    let translate = |labels: &[NamedLabel]| -> Option<Bits<W>> {
        let mut bits = Bits::EMPTY;
        for nl in labels {
            let id = cs.labels.iter().position(|l| label_matches(l, nl))?;
            bits.set(id as u32);
        }
        Some(bits)
    };
    let Some(ret) = translate(&ms.ret) else { return false };
    pend.ret = ret;
    for (class, field, labels) in &ms.fields {
        let Some(fid) = cs.fields.iter().position(|&(fix, fidx)| {
            let (c, f) = field_at(prog.apg, fix, fidx);
            c == class.as_str() && f == field.as_str()
        }) else {
            return false;
        };
        let Some(bits) = translate(labels) else { return false };
        pend.fields.push((fid as u32, bits));
    }
    for (class, method, labels) in &ms.params {
        let Some(t) = prog.apg.lookup_ix(class, method) else { return false };
        if !cs.in_scope[t as usize] {
            return false;
        }
        let Some(bits) = translate(labels) else { return false };
        pend.params.push((t, bits));
    }
    for (name, labels) in &ms.channels {
        let Some(ch) = cs.channels.iter().position(|c| c == name) else { return false };
        let Some(bits) = translate(labels) else { return false };
        pend.channels.push((ch as u32, bits));
    }
    for sl in &ms.leaks {
        let Some(sid) = cs.sites.iter().position(|s| site_matches(prog, s, sl)) else {
            return false;
        };
        let Some(lid) = cs.labels.iter().position(|l| label_matches(l, &sl.label)) else {
            return false;
        };
        pend.leaks.push((sid as u32, lid as u32));
    }
    true
}

/// Computes `F_m(∅)` for every summarizable in-scope method of a lib by
/// running the *compiled* program against a private scratch state — the
/// same interpreter that drives the live fixpoint, so summary semantics
/// can never drift from kernel semantics.
fn compute_lib_summary<const W: usize>(prog: &Program, classes: &[&Class]) -> LibSummary {
    let lib_names: HashSet<(&str, &str)> = classes
        .iter()
        .flat_map(|c| c.methods.iter().map(move |m| (c.name.as_str(), m.name.as_str())))
        .collect();
    let mut scratch = StateScratch::<W>::new();
    let mut out = LibSummary::default();
    for class in classes {
        for method in &class.methods {
            let Some(ix) = prog.apg.lookup_ix(&class.name, &method.name) else { continue };
            if !prog.cs.in_scope[ix as usize] {
                continue;
            }
            if let Some(ms) = summarize_method::<W>(
                prog,
                &mut scratch,
                ix,
                class,
                method,
                &lib_names,
                &mut out.external_calls,
            ) {
                out.methods.push(ms);
            }
        }
    }
    out.external_calls.sort_unstable();
    out.external_calls.dedup();
    out
}

fn summarize_method<const W: usize>(
    prog: &Program,
    scratch: &mut StateScratch<W>,
    ix: u32,
    class: &Class,
    method: &ppchecker_apk::Method,
    lib_names: &HashSet<(&str, &str)>,
    lib_external_calls: &mut Vec<(String, String)>,
) -> Option<MethodSummary> {
    // Classify call targets; bail out of summarization when the method's
    // first-iteration behavior depends on app code outside the lib.
    let mut external_calls: Vec<(String, String)> = Vec::new();
    for insn in &method.instructions {
        let Insn::Invoke { class: c, method: m, .. } = insn else { continue };
        if lib_names.contains(&(c.as_str(), m.as_str())) {
            // Lib-internal: must resolve to an in-scope method so the
            // recorded param push matches live semantics.
            match prog.apg.lookup_ix(c, m) {
                Some(t) if prog.cs.in_scope[t as usize] => {}
                _ => return None,
            }
        } else if prog.apg.lookup_ix(c, m).is_some() {
            return None; // calls app code outside the lib: app-dependent
        } else {
            external_calls.push((c.clone(), m.clone()));
        }
    }
    lib_external_calls.append(&mut external_calls);

    // One transfer-function application against empty global state.
    scratch.reset(prog);
    process(prog, scratch, ix);

    let cs = prog.cs;
    let labels_of = |bits: &Bits<W>| -> Vec<NamedLabel> {
        bits.ones().map(|b| named_of(&cs.labels[b as usize])).collect()
    };
    let mut ms = MethodSummary {
        class: class.name.clone(),
        method: method.name.clone(),
        ret: labels_of(&scratch.return_taint[ix as usize]),
        fields: Vec::new(),
        params: Vec::new(),
        channels: Vec::new(),
        leaks: Vec::new(),
    };
    for (fid, bits) in scratch.field_taint.iter().enumerate() {
        if !bits.is_empty() {
            let (fix, fidx) = cs.fields[fid];
            let (c, f) = field_at(prog.apg, fix, fidx);
            ms.fields.push((c.to_string(), f.to_string(), labels_of(bits)));
        }
    }
    for (t, bits) in scratch.param_taint.iter().enumerate() {
        if !bits.is_empty() {
            let (c, m) = prog.apg.method_name(prog.apg.method_node(t as u32));
            ms.params.push((c.clone(), m.clone(), labels_of(bits)));
        }
    }
    for (ch, bits) in scratch.icc_taint.iter().enumerate() {
        if !bits.is_empty() {
            ms.channels.push((cs.channels[ch].clone(), labels_of(bits)));
        }
    }
    for (sid, bits) in scratch.sink_leaks.iter().enumerate() {
        if bits.is_empty() {
            continue;
        }
        let site = &cs.sites[sid];
        let (at_class, at_method) = prog.apg.method_def(site.at_ix);
        for bit in bits.ones() {
            ms.leaks.push(SummaryLeak {
                label: named_of(&cs.labels[bit as usize]),
                api: site.api,
                at_class: at_class.name.clone(),
                at_method: at_method.name.clone(),
            });
        }
    }
    Some(ms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reach;
    use crate::taint::{analyze, analyze_cached, analyze_reference};
    use ppchecker_apk::{Apk, ComponentKind, Dex, DexBuilder, Manifest, MethodBuilder};
    use proptest::prelude::*;

    /// Tiny xorshift so random-app generation is seed-deterministic
    /// without a rand dependency.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0.wrapping_add(0x9e3779b97f4a7c15);
            self.0 = x;
            x ^= x >> 30;
            x = x.wrapping_mul(0xbf58476d1ce4e5b9);
            x ^= x >> 27;
            x = x.wrapping_mul(0x94d049bb133111eb);
            x ^ (x >> 31)
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n.max(1)
        }
    }

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
            let r = || 0;
            let _ = r;
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
            let methods = methods.clone();
            let seed = rng.next();
            builder = builder.class(&class, |c| {
                c.extends("android.app.Activity");
                let mut inner = Rng(seed);
                for m in ms {
                    c.method(&m, 1 + inner.below(3) as u32, |mb| {
                        random_body(&mut inner, mb, &methods);
                    });
                }
            });
        }
        Apk::new(manifest, builder.build())
    }

    fn leaks_both_ways(apk: &Apk) -> (Vec<Leak>, Vec<Leak>) {
        let apg = Apg::build(apk).unwrap();
        let methods = reach::reachable_methods(&apg);
        let kernel = run(&apg, &methods, None).expect("kernel should handle generated apps");
        let reference = analyze_reference(&apg, &methods);
        (kernel, reference)
    }

    proptest! {
        /// Differential fuzz: the kernel's leak vector is byte-identical
        /// to the reference engine on randomly generated apps exercising
        /// every instruction kind.
        #[test]
        fn kernel_matches_reference_on_random_apps(seed in any::<u64>()) {
            let apk = random_apk(seed);
            let (kernel, reference) = leaks_both_ways(&apk);
            prop_assert_eq!(kernel, reference);
        }

        /// Differential: the Bits ops (`or` with change detection,
        /// `is_empty`, `count`) agree with per-word references on
        /// random bit patterns, at every width the kernel instantiates
        /// and at a width that is not a power of two.
        #[test]
        fn strip_mined_bits_match_reference(seed in any::<u64>()) {
            fn check<const W: usize>(rng: &mut Rng) {
                let mut a = Bits::<W>::EMPTY;
                let mut b = Bits::<W>::EMPTY;
                for i in 0..W {
                    // AND two draws for sparse words; mix in a dense draw
                    // and an all-zero word so the changed/empty edges hit.
                    a.0[i] = match rng.below(4) {
                        0 => 0,
                        1 => rng.next(),
                        _ => rng.next() & rng.next(),
                    };
                    b.0[i] = match rng.below(4) {
                        0 => 0,
                        1 => rng.next(),
                        _ => rng.next() & rng.next(),
                    };
                }
                let ref_count: u32 = a.0.iter().map(|w| w.count_ones()).sum();
                let ref_empty = a.0.iter().all(|&w| w == 0);
                let ref_changed = a.0.iter().zip(b.0.iter()).any(|(&x, &y)| x | y != x);
                let ref_union: Vec<u64> = a.0.iter().zip(b.0.iter()).map(|(&x, &y)| x | y).collect();
                assert_eq!(a.count(), ref_count);
                assert_eq!(a.is_empty(), ref_empty);
                let mut unioned = a;
                assert_eq!(unioned.or(&b), ref_changed);
                assert_eq!(&unioned.0[..], &ref_union[..]);
                // A second union of the same operand never reports change.
                assert!(!unioned.or(&b));
            }
            let mut rng = Rng(seed);
            for _ in 0..64 {
                check::<1>(&mut rng);
                check::<2>(&mut rng);
                check::<4>(&mut rng);
                check::<7>(&mut rng);
            }
        }
    }

    #[test]
    fn kernel_declines_duplicate_method_declarations() {
        // Two declarations of com.d.Main.go: name resolution is ambiguous,
        // so the kernel must bow out and `analyze` must still answer (via
        // the reference engine).
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
                c.method("go", 1, |_| {});
            })
            .build();
        let apk = Apk::new(manifest, dex);
        let apg = Apg::build(&apk).unwrap();
        assert!(apg.has_duplicate_methods());
        let methods = reach::reachable_methods(&apg);
        assert!(run(&apg, &methods, None).is_none());
        assert_eq!(analyze(&apg, &methods), analyze_reference(&apg, &methods));
    }

    #[test]
    fn kernel_declines_label_overflow() {
        // More than 256 distinct (info, witness) labels — via distinct
        // sensitive URI literals — must force the reference fallback.
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
        let apk = Apk::new(manifest, dex);
        let apg = Apg::build(&apk).unwrap();
        let methods = reach::reachable_methods(&apg);
        assert!(run(&apg, &methods, None).is_none(), "301 labels exceed the bitset envelope");
        let leaks = analyze(&apg, &methods);
        assert_eq!(leaks, analyze_reference(&apg, &methods));
        assert!(!leaks.is_empty());
    }

    /// An app embedding an admob-prefixed SDK whose entry method leaks
    /// device id → Log and returns tainted data to the app.
    fn lib_app(package: &str) -> Apk {
        let mut manifest = Manifest::new(package);
        let main = format!("{package}.Main");
        manifest.add_component(ComponentKind::Activity, &main, true);
        let dex = lib_classes(Dex::builder())
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

    fn lib_classes(builder: DexBuilder) -> DexBuilder {
        builder.class("com.google.android.gms.ads.Sdk", |c| {
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
    }

    #[test]
    fn summary_cache_preserves_leaks_across_apps() {
        let cache = TaintSummaryCache::new();
        let mut all_cold: Vec<Vec<Leak>> = Vec::new();
        let mut all_warm: Vec<Vec<Leak>> = Vec::new();
        for (i, package) in ["com.first", "com.second", "com.third"].iter().enumerate() {
            let apk = lib_app(package);
            let apg = Apg::build(&apk).unwrap();
            let methods = reach::reachable_methods(&apg);
            let cold = analyze_reference(&apg, &methods);
            let warm = analyze_cached(&apg, &methods, Some(&cache));
            assert!(!cold.is_empty(), "lib app {i} must leak");
            all_cold.push(cold);
            all_warm.push(warm);
        }
        assert_eq!(all_cold, all_warm, "summary-warm runs must be byte-identical");
        // First app misses and stores; the other two hit.
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.entries(), 1);
    }

    #[test]
    fn summary_is_invalidated_by_lib_content_change() {
        let cache = TaintSummaryCache::new();
        let a = lib_app("com.first");
        let apg_a = Apg::build(&a).unwrap();
        let ms = reach::reachable_methods(&apg_a);
        let _ = analyze_cached(&apg_a, &ms, Some(&cache));

        // Same class/method names, different body ⇒ different content
        // hash ⇒ no summary reuse.
        let mut manifest = Manifest::new("com.mod");
        manifest.add_component(ComponentKind::Activity, "com.mod.Main", true);
        let dex = Dex::builder()
            .class("com.google.android.gms.ads.Sdk", |c| {
                c.method("init", 1, |m| {
                    m.invoke_virtual("android.location.Location", "getLongitude", &[0], Some(1));
                    m.ret(Some(1));
                });
                c.method("upload", 1, |_| {});
            })
            .class("com.mod.Main", |c| {
                c.extends("android.app.Activity");
                c.method("onCreate", 1, |m| {
                    m.invoke_virtual("com.google.android.gms.ads.Sdk", "init", &[0], Some(1));
                    m.invoke_static("android.util.Log", "d", &[1], None);
                });
            })
            .build();
        let b = Apk::new(manifest, dex);
        let apg_b = Apg::build(&b).unwrap();
        let ms_b = reach::reachable_methods(&apg_b);
        let warm = analyze_cached(&apg_b, &ms_b, Some(&cache));
        assert_eq!(warm, analyze_reference(&apg_b, &ms_b));
        assert_eq!(cache.entries(), 2, "modified lib stored under a new key");
    }
}
