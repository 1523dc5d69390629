//! A register-based dex-like intermediate representation.
//!
//! The real PPChecker analyzes Dalvik bytecode recovered from the APK. This
//! module models the subset of Dalvik that the paper's static analysis
//! observes: classes with superclasses and interfaces, methods with
//! register-based instructions, string constants (for content-provider
//! URIs), virtual/static invocations, field accesses, object allocation,
//! and intra-method control flow.

use std::fmt;

/// A virtual register index.
pub type Reg = u32;

/// Invocation kinds (mirrors `invoke-virtual` / `invoke-static` / ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InvokeKind {
    /// `invoke-virtual`
    Virtual,
    /// `invoke-static`
    Static,
    /// `invoke-direct` (constructors, private methods)
    Direct,
    /// `invoke-interface`
    Interface,
}

/// One IR instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Insn {
    /// Loads a string constant into `dst`.
    ConstString {
        /// Destination register.
        dst: Reg,
        /// The constant.
        value: String,
    },
    /// Invokes `class.method(args)`, optionally storing the result.
    Invoke {
        /// Invocation kind.
        kind: InvokeKind,
        /// Declaring class of the callee (receiver static type).
        class: String,
        /// Method name.
        method: String,
        /// Argument registers (receiver first for non-static calls).
        args: Vec<Reg>,
        /// Register receiving the return value (from a following
        /// `move-result`), if any.
        dst: Option<Reg>,
    },
    /// Register copy.
    Move {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// Stores `src` into an instance/static field.
    FieldPut {
        /// Declaring class.
        class: String,
        /// Field name.
        field: String,
        /// Source register.
        src: Reg,
    },
    /// Loads a field into `dst`.
    FieldGet {
        /// Declaring class.
        class: String,
        /// Field name.
        field: String,
        /// Destination register.
        dst: Reg,
    },
    /// Allocates an object of `class` into `dst`.
    NewInstance {
        /// Destination register.
        dst: Reg,
        /// Allocated class.
        class: String,
    },
    /// Returns, optionally with a value.
    Return {
        /// Returned register, if non-void.
        src: Option<Reg>,
    },
    /// Unconditional jump to instruction index `target`.
    Goto {
        /// Target instruction index.
        target: usize,
    },
    /// Conditional jump on `cond` to `target` (fall-through otherwise).
    IfNonZero {
        /// Condition register.
        cond: Reg,
        /// Target instruction index.
        target: usize,
    },
    /// No-op.
    Nop,
}

/// A method body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Method {
    /// Method name (no signature — the IR is name-resolved).
    pub name: String,
    /// Number of parameter registers; parameters occupy registers
    /// `0..param_count`.
    pub param_count: u32,
    /// Instruction list.
    pub instructions: Vec<Insn>,
}

impl Method {
    /// Creates an empty method.
    pub fn new(name: &str, param_count: u32) -> Self {
        Method { name: name.to_string(), param_count, instructions: Vec::new() }
    }
}

/// A class definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Class {
    /// Fully qualified name, e.g. `com.example.app.MainActivity`.
    pub name: String,
    /// Superclass fully qualified name.
    pub superclass: String,
    /// Implemented interfaces.
    pub interfaces: Vec<String>,
    /// Methods.
    pub methods: Vec<Method>,
}

impl Class {
    /// Looks up a method by name.
    pub fn method(&self, name: &str) -> Option<&Method> {
        self.methods.iter().find(|m| m.name == name)
    }
}

/// A dex file: the set of application classes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Dex {
    /// All classes.
    pub classes: Vec<Class>,
}

impl Dex {
    /// Creates an empty dex.
    pub fn new() -> Self {
        Dex::default()
    }

    /// Starts building a dex fluently.
    pub fn builder() -> DexBuilder {
        DexBuilder { dex: Dex::new() }
    }

    /// Looks up a class by fully qualified name.
    pub fn class(&self, name: &str) -> Option<&Class> {
        self.classes.iter().find(|c| c.name == name)
    }

    /// Iterates `(class, method)` pairs.
    pub fn iter_methods(&self) -> impl Iterator<Item = (&Class, &Method)> {
        self.classes.iter().flat_map(|c| c.methods.iter().map(move |m| (c, m)))
    }

    /// Total instruction count (a rough "bytecode size").
    pub fn instruction_count(&self) -> usize {
        self.iter_methods().map(|(_, m)| m.instructions.len()).sum()
    }

    /// Total number of method bodies.
    pub fn method_count(&self) -> usize {
        self.classes.iter().map(|c| c.methods.len()).sum()
    }

    /// Dense [`MethodRef`]s for every method, in declaration order.
    ///
    /// Position `i` of the returned table is the stable dense id of the
    /// `i`-th method of the dex; analyses that index per-method state by
    /// `u32` build their tables off this ordering.
    pub fn method_refs(&self) -> Vec<MethodRef> {
        let mut out = Vec::with_capacity(self.method_count());
        for (ci, class) in self.classes.iter().enumerate() {
            for mi in 0..class.methods.len() {
                out.push(MethodRef { class: ci as u32, method: mi as u32 });
            }
        }
        out
    }

    /// Resolves a [`MethodRef`] back to its class and method.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds for this dex.
    pub fn method_at(&self, r: MethodRef) -> (&Class, &Method) {
        let class = &self.classes[r.class as usize];
        (class, &class.methods[r.method as usize])
    }

    /// A stable structural hash of all classes (see [`stable_hash_classes`]).
    pub fn stable_hash(&self) -> u64 {
        stable_hash_classes(self.classes.iter())
    }
}

/// A dense reference to one method body: indexes into [`Dex::classes`] and
/// that class's method list. Assigned in declaration order, so the same
/// dex bytes always produce the same ids (unlike map-derived orderings).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MethodRef {
    /// Index into [`Dex::classes`].
    pub class: u32,
    /// Index into the class's method list.
    pub method: u32,
}

/// A stable content hash over a set of classes (FNV-1a over a canonical
/// byte encoding of names, hierarchy, and instructions).
///
/// Unlike `std`'s `Hash`, the digest depends only on the class *content*
/// and order — not on process-specific hasher state — so it is usable as
/// a cross-run cache key (the store keys reports by the APK's content
/// hash).
pub fn stable_hash_classes<'a>(classes: impl Iterator<Item = &'a Class>) -> u64 {
    let mut h = Fnv::new();
    for class in classes {
        class.hash_into(&mut h);
    }
    h.finish()
}

impl Class {
    /// The stable content hash of this class alone.
    pub fn stable_hash(&self) -> u64 {
        let mut h = Fnv::new();
        self.hash_into(&mut h);
        h.finish()
    }

    fn hash_into(&self, h: &mut Fnv) {
        h.str(&self.name);
        h.str(&self.superclass);
        h.u64(self.interfaces.len() as u64);
        for i in &self.interfaces {
            h.str(i);
        }
        h.u64(self.methods.len() as u64);
        for m in &self.methods {
            h.str(&m.name);
            h.u64(u64::from(m.param_count));
            h.u64(m.instructions.len() as u64);
            for insn in &m.instructions {
                insn.hash_into(h);
            }
        }
    }
}

impl Insn {
    fn hash_into(&self, h: &mut Fnv) {
        match self {
            Insn::ConstString { dst, value } => {
                h.u64(1);
                h.u64(u64::from(*dst));
                h.str(value);
            }
            Insn::Invoke { kind, class, method, args, dst } => {
                h.u64(2);
                h.u64(match kind {
                    InvokeKind::Virtual => 0,
                    InvokeKind::Static => 1,
                    InvokeKind::Direct => 2,
                    InvokeKind::Interface => 3,
                });
                h.str(class);
                h.str(method);
                h.u64(args.len() as u64);
                for &a in args {
                    h.u64(u64::from(a));
                }
                h.u64(dst.map_or(u64::MAX, u64::from));
            }
            Insn::Move { dst, src } => {
                h.u64(3);
                h.u64(u64::from(*dst));
                h.u64(u64::from(*src));
            }
            Insn::FieldPut { class, field, src } => {
                h.u64(4);
                h.str(class);
                h.str(field);
                h.u64(u64::from(*src));
            }
            Insn::FieldGet { class, field, dst } => {
                h.u64(5);
                h.str(class);
                h.str(field);
                h.u64(u64::from(*dst));
            }
            Insn::NewInstance { dst, class } => {
                h.u64(6);
                h.u64(u64::from(*dst));
                h.str(class);
            }
            Insn::Return { src } => {
                h.u64(7);
                h.u64(src.map_or(u64::MAX, u64::from));
            }
            Insn::Goto { target } => {
                h.u64(8);
                h.u64(*target as u64);
            }
            Insn::IfNonZero { cond, target } => {
                h.u64(9);
                h.u64(u64::from(*cond));
                h.u64(*target as u64);
            }
            Insn::Nop => h.u64(10),
        }
    }
}

/// 64-bit FNV-style xor-multiply mix (the usual offset basis and prime),
/// folded over 8-byte little-endian chunks rather than single bytes: one
/// multiply per word instead of eight, which matters when every class of
/// every embedded lib is hashed per app. Length-prefixing every string
/// keeps the chunk stream prefix-free (the zero-padded tail cannot
/// collide with a longer string because the length differs).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.word(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.word(u64::from_le_bytes(buf));
        }
    }

    fn word(&mut self, w: u64) {
        self.0 ^= w;
        self.0 = self.0.wrapping_mul(0x100_0000_01b3);
    }

    fn u64(&mut self, v: u64) {
        self.word(v);
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Fluent builder for [`Dex`].
#[derive(Debug)]
pub struct DexBuilder {
    dex: Dex,
}

impl DexBuilder {
    /// Adds a class, configured by `f`.
    pub fn class(mut self, name: &str, f: impl FnOnce(&mut ClassBuilder)) -> Self {
        let mut cb = ClassBuilder {
            class: Class {
                name: name.to_string(),
                superclass: "java.lang.Object".to_string(),
                interfaces: Vec::new(),
                methods: Vec::new(),
            },
        };
        f(&mut cb);
        self.dex.classes.push(cb.class);
        self
    }

    /// Finishes the dex.
    pub fn build(self) -> Dex {
        self.dex
    }
}

/// Fluent builder for [`Class`].
#[derive(Debug)]
pub struct ClassBuilder {
    class: Class,
}

impl ClassBuilder {
    /// Sets the superclass.
    pub fn extends(&mut self, superclass: &str) -> &mut Self {
        self.class.superclass = superclass.to_string();
        self
    }

    /// Adds an implemented interface.
    pub fn implements(&mut self, iface: &str) -> &mut Self {
        self.class.interfaces.push(iface.to_string());
        self
    }

    /// Adds a method, configured by `f`.
    pub fn method(
        &mut self,
        name: &str,
        param_count: u32,
        f: impl FnOnce(&mut MethodBuilder),
    ) -> &mut Self {
        let mut mb = MethodBuilder { method: Method::new(name, param_count) };
        f(&mut mb);
        if !matches!(mb.method.instructions.last(), Some(Insn::Return { .. })) {
            mb.method.instructions.push(Insn::Return { src: None });
        }
        self.class.methods.push(mb.method);
        self
    }
}

/// Fluent builder for [`Method`] bodies.
#[derive(Debug)]
pub struct MethodBuilder {
    method: Method,
}

impl MethodBuilder {
    /// Appends a raw instruction.
    pub fn push(&mut self, insn: Insn) -> &mut Self {
        self.method.instructions.push(insn);
        self
    }

    /// `const-string dst, value`
    pub fn const_string(&mut self, dst: Reg, value: &str) -> &mut Self {
        self.push(Insn::ConstString { dst, value: value.to_string() })
    }

    /// `invoke-virtual class.method(args)` with optional result register.
    pub fn invoke_virtual(
        &mut self,
        class: &str,
        method: &str,
        args: &[Reg],
        dst: Option<Reg>,
    ) -> &mut Self {
        self.push(Insn::Invoke {
            kind: InvokeKind::Virtual,
            class: class.to_string(),
            method: method.to_string(),
            args: args.to_vec(),
            dst,
        })
    }

    /// `invoke-static class.method(args)` with optional result register.
    pub fn invoke_static(
        &mut self,
        class: &str,
        method: &str,
        args: &[Reg],
        dst: Option<Reg>,
    ) -> &mut Self {
        self.push(Insn::Invoke {
            kind: InvokeKind::Static,
            class: class.to_string(),
            method: method.to_string(),
            args: args.to_vec(),
            dst,
        })
    }

    /// `move dst, src`
    pub fn mov(&mut self, dst: Reg, src: Reg) -> &mut Self {
        self.push(Insn::Move { dst, src })
    }

    /// `new-instance dst, class`
    pub fn new_instance(&mut self, dst: Reg, class: &str) -> &mut Self {
        self.push(Insn::NewInstance { dst, class: class.to_string() })
    }

    /// `iput/sput src → class.field`
    pub fn field_put(&mut self, class: &str, field: &str, src: Reg) -> &mut Self {
        self.push(Insn::FieldPut { class: class.to_string(), field: field.to_string(), src })
    }

    /// `iget/sget class.field → dst`
    pub fn field_get(&mut self, class: &str, field: &str, dst: Reg) -> &mut Self {
        self.push(Insn::FieldGet { class: class.to_string(), field: field.to_string(), dst })
    }

    /// `return` / `return v`
    pub fn ret(&mut self, src: Option<Reg>) -> &mut Self {
        self.push(Insn::Return { src })
    }
}

impl fmt::Display for Insn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Insn::ConstString { dst, value } => write!(f, "const-string v{dst}, \"{value}\""),
            Insn::Invoke { kind, class, method, args, dst } => {
                let k = match kind {
                    InvokeKind::Virtual => "invoke-virtual",
                    InvokeKind::Static => "invoke-static",
                    InvokeKind::Direct => "invoke-direct",
                    InvokeKind::Interface => "invoke-interface",
                };
                let a: Vec<String> = args.iter().map(|r| format!("v{r}")).collect();
                write!(f, "{k} {}.{}({})", class, method, a.join(", "))?;
                if let Some(d) = dst {
                    write!(f, " → v{d}")?;
                }
                Ok(())
            }
            Insn::Move { dst, src } => write!(f, "move v{dst}, v{src}"),
            Insn::FieldPut { class, field, src } => write!(f, "iput v{src} → {class}.{field}"),
            Insn::FieldGet { class, field, dst } => write!(f, "iget {class}.{field} → v{dst}"),
            Insn::NewInstance { dst, class } => write!(f, "new-instance v{dst}, {class}"),
            Insn::Return { src: Some(s) } => write!(f, "return v{s}"),
            Insn::Return { src: None } => write!(f, "return-void"),
            Insn::Goto { target } => write!(f, "goto @{target}"),
            Insn::IfNonZero { cond, target } => write!(f, "if-nez v{cond} @{target}"),
            Insn::Nop => write!(f, "nop"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_dex() -> Dex {
        Dex::builder()
            .class("com.example.app.MainActivity", |c| {
                c.extends("android.app.Activity");
                c.method("onCreate", 1, |m| {
                    m.invoke_virtual(
                        "android.telephony.TelephonyManager",
                        "getDeviceId",
                        &[2],
                        Some(3),
                    );
                    m.invoke_static("android.util.Log", "d", &[3], None);
                });
            })
            .build()
    }

    #[test]
    fn builder_constructs_classes_and_methods() {
        let dex = sample_dex();
        let cls = dex.class("com.example.app.MainActivity").unwrap();
        assert_eq!(cls.superclass, "android.app.Activity");
        let m = cls.method("onCreate").unwrap();
        // two invokes + implicit return
        assert_eq!(m.instructions.len(), 3);
    }

    #[test]
    fn builder_appends_implicit_return() {
        let dex = sample_dex();
        let m = dex.class("com.example.app.MainActivity").unwrap().method("onCreate").unwrap();
        assert!(matches!(m.instructions.last(), Some(Insn::Return { src: None })));
    }

    #[test]
    fn iter_methods_walks_everything() {
        let dex = sample_dex();
        assert_eq!(dex.iter_methods().count(), 1);
        assert_eq!(dex.instruction_count(), 3);
    }

    #[test]
    fn method_refs_are_declaration_ordered() {
        let dex = Dex::builder()
            .class("com.x.A", |c| {
                c.method("a", 0, |_| {});
                c.method("b", 0, |_| {});
            })
            .class("com.x.B", |c| {
                c.method("c", 0, |_| {});
            })
            .build();
        let refs = dex.method_refs();
        assert_eq!(refs.len(), 3);
        assert_eq!(dex.method_count(), 3);
        assert_eq!(refs[0], MethodRef { class: 0, method: 0 });
        assert_eq!(refs[2], MethodRef { class: 1, method: 0 });
        let (cls, m) = dex.method_at(refs[1]);
        assert_eq!((cls.name.as_str(), m.name.as_str()), ("com.x.A", "b"));
    }

    #[test]
    fn stable_hash_is_content_addressed() {
        let dex = sample_dex();
        // Same bytes, same digest — across independently built values.
        assert_eq!(dex.stable_hash(), sample_dex().stable_hash());
        // Any content change moves the digest.
        let mut renamed = dex.clone();
        renamed.classes[0].methods[0].name = "onResume".into();
        assert_ne!(dex.stable_hash(), renamed.stable_hash());
        let mut rewired = dex.clone();
        if let Insn::Invoke { args, .. } = &mut rewired.classes[0].methods[0].instructions[0] {
            args[0] = 7;
        }
        assert_ne!(dex.stable_hash(), rewired.stable_hash());
        // Per-class digests feed the same canonical stream.
        assert_eq!(dex.stable_hash(), stable_hash_classes(dex.classes.iter()));
        assert_eq!(dex.classes[0].stable_hash(), dex.stable_hash());
    }

    #[test]
    fn insn_display_is_dalvik_like() {
        let i = Insn::ConstString { dst: 1, value: "content://contacts".into() };
        assert_eq!(i.to_string(), "const-string v1, \"content://contacts\"");
        let inv = Insn::Invoke {
            kind: InvokeKind::Virtual,
            class: "a.B".into(),
            method: "c".into(),
            args: vec![0],
            dst: Some(1),
        };
        assert_eq!(inv.to_string(), "invoke-virtual a.B.c(v0) → v1");
    }
}
