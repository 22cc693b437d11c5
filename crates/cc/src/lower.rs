//! Lowering from the C-subset AST to `regalloc-ir`.
//!
//! Shapes that keep the textual IR round-trippable (the fuzzer's
//! interchange format):
//!
//! * every branch compares at the target word width — `long` values
//!   cannot appear in conditions (a located error);
//! * call results are always `int` (the IR models callees as opaque
//!   deterministic effects, so cross-function values stay word-sized);
//! * locals without initializers are defined to zero at declaration, so
//!   every symbolic register has a defining instruction the IR parser
//!   can reconstruct widths from;
//! * address-taken locals (`&x` anywhere in the function) are pinned to
//!   fixed absolute memory slots and never become symbolic registers —
//!   every read loads and every write stores through
//!   `[frame_base + k*8]`, and `&x` is simply that address as an
//!   integer. Registers can thus never have to hold an aliased value,
//!   matching how the paper's compilers treat `&`.
//!
//! C parameters become the IR's parameter globals (`§5.5` predefined
//! memory values) loaded into locals at entry; file-scope globals are
//! materialized per function on first use; calls lower to the IR's
//! opaque `call fnN(...)` with a deterministic program-wide numbering,
//! and any function containing a call marks its used file-scope globals
//! aliased (a callee may touch any global, as in C).

use std::collections::{HashMap, HashSet};

use regalloc_ir::{
    Address, BinOp, Cond, Function, FunctionBuilder, GlobalId, Inst, Operand, Scale, SymId, Width,
};

use crate::parse::{BinOpK, CType, Decl, Expr, ExprKind, Param, Stmt, UnOpK};
use crate::CcError;

/// Program-wide callee numbering: definitions and `extern` declarations
/// first, in program order, then undeclared names in first-call order.
#[derive(Default)]
pub struct CalleeMap {
    ids: HashMap<String, u32>,
    next: u32,
}

impl CalleeMap {
    pub fn id(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.next;
        self.next += 1;
        self.ids.insert(name.to_string(), id);
        id
    }
}

/// Target-dependent lowering choices. The default is the 32-bit model
/// every x86-class target uses; [`LowerOptions::for_target`] derives the
/// right options for any registered target.
#[derive(Clone, Debug)]
pub struct LowerOptions {
    /// Width of `int` and of pointers.
    pub word: Width,
    /// Whether scaled-index addressing (`[base + idx*s]`) may be used
    /// for `p[i]`; targets without it get an explicit shift-and-add.
    pub scaled_index: bool,
    /// Base address of the fixed slots backing address-taken locals.
    pub frame_base: i32,
}

impl Default for LowerOptions {
    fn default() -> LowerOptions {
        LowerOptions {
            word: Width::B32,
            scaled_index: true,
            frame_base: 0x00F8_0000,
        }
    }
}

impl LowerOptions {
    /// The options matching a registered target: the MCU has a 16-bit
    /// word, no scaled addressing, and a 16-bit address space for the
    /// frame slots; everything else takes the 32-bit defaults.
    pub fn for_target(t: regalloc_machine::TargetId) -> LowerOptions {
        match t {
            regalloc_machine::TargetId::Mcu => LowerOptions {
                word: Width::B16,
                scaled_index: false,
                frame_base: 0x4000,
            },
            _ => LowerOptions::default(),
        }
    }
}

/// A lowered value: an operand plus its C type. `lit` marks bare
/// literals, which adopt the type of whatever they meet.
#[derive(Clone, Debug)]
struct Val {
    op: Operand,
    ty: CType,
    lit: bool,
}

/// Where a local lives: a symbolic register, or — when its address is
/// taken anywhere in the function — a fixed absolute memory slot.
#[derive(Clone, Copy)]
enum LocalSlot {
    Reg(SymId),
    Mem(i32),
}

#[derive(Clone)]
struct Local {
    slot: LocalSlot,
    ty: CType,
}

struct FileGlobal {
    ty: CType,
    init: i64,
}

pub struct Lower<'p> {
    b: FunctionBuilder,
    opts: &'p LowerOptions,
    locals: Vec<HashMap<String, Local>>,
    file_globals: &'p HashMap<String, FileGlobal>,
    used_globals: HashMap<String, (GlobalId, CType)>,
    used_order: Vec<GlobalId>,
    callees: &'p mut CalleeMap,
    ret_ty: CType,
    has_call: bool,
    /// Names whose address is taken somewhere in this function.
    addressed: HashSet<String>,
    /// Next free frame-slot index for address-taken locals.
    frame_next: i32,
    /// Whether the current block still needs a terminator.
    open: bool,
}

/// The absolute address of an allocated frame slot.
fn frame_addr(disp: i32) -> Address {
    Address::Indirect {
        base: None,
        index: None,
        disp,
    }
}

fn err<T>(e: &Expr, msg: impl Into<String>) -> Result<T, CcError> {
    Err(CcError::new(e.line, e.col, &e.tok, msg))
}

impl<'p> Lower<'p> {
    fn width_of(&self, ty: &CType) -> Width {
        match ty {
            CType::Long => Width::B64,
            _ => self.opts.word,
        }
    }

    /// Size of a value of `ty` in bytes under these options (`int` and
    /// pointers are word-sized, `long` is always 8).
    fn size_of(&self, ty: &CType) -> i64 {
        match ty {
            CType::Long => 8,
            _ => self.opts.word.bytes() as i64,
        }
    }

    /// Allocate the next fixed slot for an address-taken local. Slots
    /// are 8 bytes apart so any scalar fits regardless of type.
    fn alloc_frame_slot(&mut self) -> i32 {
        let d = self.opts.frame_base + self.frame_next * 8;
        self.frame_next += 1;
        d
    }

    fn lookup(&self, name: &str) -> Option<Local> {
        self.locals.iter().rev().find_map(|s| s.get(name)).cloned()
    }

    fn bind(&mut self, name: &str, slot: LocalSlot, ty: CType) {
        self.locals
            .last_mut()
            .unwrap()
            .insert(name.to_string(), Local { slot, ty });
    }

    /// Materialize a file-scope global into this function on first use.
    fn global(&mut self, e: &Expr, name: &str) -> Result<(GlobalId, CType), CcError> {
        if let Some(g) = self.used_globals.get(name) {
            return Ok(g.clone());
        }
        let Some(fg) = self.file_globals.get(name) else {
            return err(e, format!("unknown variable `{name}`"));
        };
        let gid = self.b.new_global(name, self.width_of(&fg.ty), fg.init);
        self.used_globals
            .insert(name.to_string(), (gid, fg.ty.clone()));
        self.used_order.push(gid);
        Ok((gid, fg.ty.clone()))
    }

    fn fresh(&mut self, ty: &CType) -> SymId {
        let w = self.width_of(ty);
        self.b.new_sym(w)
    }

    /// Force a value into a symbolic register.
    fn as_sym(&mut self, v: &Val) -> SymId {
        match v.op {
            Operand::Loc(regalloc_ir::Loc::Sym(s)) => s,
            Operand::Imm(imm) => {
                let s = self.fresh(&v.ty);
                self.b.load_imm(s, imm);
                s
            }
            _ => unreachable!("lowering only produces syms and immediates"),
        }
    }

    /// Unify the types of two operands of a binary op; literals adopt
    /// the other side.
    fn unify(&self, e: &Expr, l: &Val, r: &Val) -> Result<CType, CcError> {
        match (l.lit, r.lit) {
            (true, true) => Ok(CType::Int),
            (true, false) => Ok(r.ty.clone()),
            (false, true) => Ok(l.ty.clone()),
            (false, false) if l.ty == r.ty => Ok(l.ty.clone()),
            _ => err(
                e,
                format!("operands have different types: {} vs {}", l.ty, r.ty),
            ),
        }
    }

    /// A 32-bit-comparable operand: `int`, pointer, or literal.
    fn cond_operand(&mut self, e: &Expr) -> Result<Operand, CcError> {
        let v = self.value(e)?;
        if !v.lit && v.ty == CType::Long {
            return err(
                e,
                "64-bit values cannot appear in comparisons or conditions",
            );
        }
        Ok(v.op)
    }

    // ---- expressions -------------------------------------------------

    fn value(&mut self, e: &Expr) -> Result<Val, CcError> {
        self.value_hint(e, None)
    }

    fn value_hint(&mut self, e: &Expr, hint: Option<&CType>) -> Result<Val, CcError> {
        match &e.kind {
            ExprKind::Num(v) => Ok(Val {
                op: Operand::Imm(*v),
                ty: hint.cloned().unwrap_or(CType::Int),
                lit: true,
            }),
            ExprKind::Var(name) => {
                if let Some(l) = self.lookup(name) {
                    let op = match l.slot {
                        LocalSlot::Reg(s) => Operand::sym(s),
                        LocalSlot::Mem(disp) => {
                            // Address-taken: every read goes to memory.
                            let d = self.fresh(&l.ty);
                            self.b.load(d, frame_addr(disp));
                            Operand::sym(d)
                        }
                    };
                    return Ok(Val {
                        op,
                        ty: l.ty,
                        lit: false,
                    });
                }
                let (gid, ty) = self.global(e, name)?;
                let s = self.fresh(&ty);
                self.b.load_global(s, gid);
                Ok(Val {
                    op: Operand::sym(s),
                    ty,
                    lit: false,
                })
            }
            ExprKind::Un(op, inner) => self.unary(e, *op, inner, hint),
            ExprKind::Bin(op, l, r) => self.binary(e, *op, l, r, hint),
            ExprKind::Assign(target, rhs) => self.assign(e, target, rhs),
            ExprKind::Call(name, args) => self.call(e, name, args),
            ExprKind::Index(p, i) => {
                let (addr, elem) = self.element_address(e, p, i)?;
                let d = self.fresh(&elem);
                self.b.load(d, addr);
                Ok(Val {
                    op: Operand::sym(d),
                    ty: elem,
                    lit: false,
                })
            }
            ExprKind::Addr(name) => {
                let Some(l) = self.lookup(name) else {
                    return err(
                        e,
                        format!("`&` applies only to locals; `{name}` is not one in scope"),
                    );
                };
                let LocalSlot::Mem(disp) = l.slot else {
                    unreachable!("addressed locals are memory-pinned at declaration")
                };
                // The address itself is just a word-sized integer.
                Ok(Val {
                    op: Operand::Imm(disp as i64),
                    ty: CType::Ptr(Box::new(l.ty)),
                    lit: false,
                })
            }
            ExprKind::Deref(p) => {
                let pv = self.value(p)?;
                let Some(elem) = pv.ty.pointee().cloned() else {
                    return err(e, format!("cannot dereference a value of type {}", pv.ty));
                };
                let base = self.as_sym(&pv);
                let d = self.fresh(&elem);
                self.b.load(
                    d,
                    Address::Indirect {
                        base: Some(regalloc_ir::Loc::Sym(base)),
                        index: None,
                        disp: 0,
                    },
                );
                Ok(Val {
                    op: Operand::sym(d),
                    ty: elem,
                    lit: false,
                })
            }
        }
    }

    fn unary(
        &mut self,
        e: &Expr,
        op: UnOpK,
        inner: &Expr,
        hint: Option<&CType>,
    ) -> Result<Val, CcError> {
        if op == UnOpK::LogNot {
            return self.comparison_value(e);
        }
        let v = self.value_hint(inner, hint)?;
        // Constant-fold literal operands so `-5` stays an immediate.
        if let (true, Operand::Imm(imm)) = (v.lit, v.op) {
            let folded = match op {
                UnOpK::Neg => imm.wrapping_neg(),
                UnOpK::BitNot => !imm,
                UnOpK::LogNot => unreachable!(),
            };
            return Ok(Val {
                op: Operand::Imm(folded),
                ty: v.ty,
                lit: true,
            });
        }
        if v.ty.pointee().is_some() {
            return err(e, "unary arithmetic on pointers is outside the subset");
        }
        let d = self.fresh(&v.ty);
        let uop = match op {
            UnOpK::Neg => regalloc_ir::UnOp::Neg,
            UnOpK::BitNot => regalloc_ir::UnOp::Not,
            UnOpK::LogNot => unreachable!(),
        };
        self.b.un(uop, d, v.op);
        Ok(Val {
            op: Operand::sym(d),
            ty: v.ty,
            lit: false,
        })
    }

    fn binary(
        &mut self,
        e: &Expr,
        op: BinOpK,
        l: &Expr,
        r: &Expr,
        hint: Option<&CType>,
    ) -> Result<Val, CcError> {
        use BinOpK::*;
        match op {
            Eq | Ne | Lt | Le | Gt | Ge | LAnd | LOr => return self.comparison_value(e),
            _ => {}
        }
        let lv = self.value_hint(l, hint)?;
        let rv = self.value_hint(r, hint)?;

        // Pointer arithmetic: scale the integer side by the element size.
        if matches!(op, Add | Sub) {
            let (pv, iv, swapped) = if lv.ty.pointee().is_some() {
                (&lv, &rv, false)
            } else if rv.ty.pointee().is_some() {
                (&rv, &lv, true)
            } else {
                return self.int_binary(e, op, lv, rv);
            };
            if op == Sub && swapped {
                return err(e, "cannot subtract a pointer from an integer");
            }
            if !iv.lit && iv.ty != CType::Int {
                return err(e, "pointer offsets must be `int`");
            }
            let elem = pv.ty.pointee().unwrap().clone();
            let esize = self.size_of(&elem);
            let scaled = match iv.op {
                Operand::Imm(n) => Operand::Imm(n.wrapping_mul(esize)),
                _ => {
                    let i = self.as_sym(iv);
                    let t = self.fresh(&CType::Int);
                    let shift = esize.trailing_zeros() as i64;
                    self.b
                        .bin(BinOp::Shl, t, Operand::sym(i), Operand::Imm(shift));
                    Operand::sym(t)
                }
            };
            let base = self.as_sym(pv);
            let d = self.fresh(&pv.ty);
            let bop = if op == Add { BinOp::Add } else { BinOp::Sub };
            self.b.bin(bop, d, Operand::sym(base), scaled);
            return Ok(Val {
                op: Operand::sym(d),
                ty: pv.ty.clone(),
                lit: false,
            });
        }
        self.int_binary(e, op, lv, rv)
    }

    fn int_binary(&mut self, e: &Expr, op: BinOpK, lv: Val, rv: Val) -> Result<Val, CcError> {
        use BinOpK::*;
        let ty = self.unify(e, &lv, &rv)?;
        if ty.pointee().is_some() {
            return err(e, "arithmetic between two pointers is outside the subset");
        }
        let bop = match op {
            Add => BinOp::Add,
            Sub => BinOp::Sub,
            Mul => BinOp::Mul,
            BitAnd => BinOp::And,
            BitOr => BinOp::Or,
            BitXor => BinOp::Xor,
            // C's `>>` on (signed) int is arithmetic on every target we
            // model; `regalloc-ir`'s `Sar` matches.
            Shl => BinOp::Shl,
            Shr => BinOp::Sar,
            _ => unreachable!("comparisons handled above"),
        };
        if bop.is_shift() && ty == CType::Long {
            return err(e, "shifts on `long` are outside the subset");
        }
        // Two-address friendliness: a literal on the left of a
        // non-commutative op is materialized.
        let lhs = if !bop.is_commutative() || bop.is_shift() {
            Operand::sym(self.as_sym(&lv))
        } else {
            lv.op
        };
        let d = self.fresh(&ty);
        self.b.bin(bop, d, lhs, rv.op);
        Ok(Val {
            op: Operand::sym(d),
            ty,
            lit: false,
        })
    }

    /// Lower a comparison / logical expression in *value* position to a
    /// 0/1 `int` using a flag temporary defined on both paths.
    fn comparison_value(&mut self, e: &Expr) -> Result<Val, CcError> {
        let t = self.fresh(&CType::Int);
        self.b.load_imm(t, 0);
        let set = self.b.block();
        let join = self.b.block();
        self.condition(e, set, join)?;
        self.b.switch_to(set);
        self.b.load_imm(t, 1);
        self.b.jump(join);
        self.b.switch_to(join);
        Ok(Val {
            op: Operand::sym(t),
            ty: CType::Int,
            lit: false,
        })
    }

    /// Lower `e` as a condition: branch to `tb` when true, `fb` when
    /// false. Terminates the current block.
    fn condition(
        &mut self,
        e: &Expr,
        tb: regalloc_ir::BlockId,
        fb: regalloc_ir::BlockId,
    ) -> Result<(), CcError> {
        match &e.kind {
            ExprKind::Bin(op, l, r) if cond_of(*op).is_some() => {
                let lv = self.value(l)?;
                let rv = self.value(r)?;
                for (v, src) in [(&lv, l), (&rv, r)] {
                    if !v.lit && v.ty == CType::Long {
                        return err(
                            src,
                            "64-bit values cannot appear in comparisons or conditions",
                        );
                    }
                }
                self.unify(e, &lv, &rv)?;
                let w = self.opts.word;
                self.b
                    .branch(cond_of(*op).unwrap(), lv.op, rv.op, w, tb, fb);
                Ok(())
            }
            ExprKind::Bin(BinOpK::LAnd, l, r) => {
                let mid = self.b.block();
                self.condition(l, mid, fb)?;
                self.b.switch_to(mid);
                self.condition(r, tb, fb)
            }
            ExprKind::Bin(BinOpK::LOr, l, r) => {
                let mid = self.b.block();
                self.condition(l, tb, mid)?;
                self.b.switch_to(mid);
                self.condition(r, tb, fb)
            }
            ExprKind::Un(UnOpK::LogNot, inner) => self.condition(inner, fb, tb),
            _ => {
                let v = self.cond_operand(e)?;
                let w = self.opts.word;
                self.b.branch(Cond::Ne, v, Operand::Imm(0), w, tb, fb);
                Ok(())
            }
        }
    }

    fn assign(&mut self, e: &Expr, target: &Expr, rhs: &Expr) -> Result<Val, CcError> {
        match &target.kind {
            ExprKind::Var(name) => {
                if let Some(l) = self.lookup(name) {
                    let v = self.value_hint(rhs, Some(&l.ty))?;
                    self.check_assignable(e, &l.ty, &v)?;
                    match l.slot {
                        LocalSlot::Reg(sym) => {
                            match v.op {
                                Operand::Imm(imm) => self.b.load_imm(sym, imm),
                                Operand::Loc(regalloc_ir::Loc::Sym(s)) => self.b.copy(sym, s),
                                _ => unreachable!(),
                            }
                            return Ok(Val {
                                op: Operand::sym(sym),
                                ty: l.ty,
                                lit: false,
                            });
                        }
                        LocalSlot::Mem(disp) => {
                            let w = self.width_of(&l.ty);
                            self.b.store(frame_addr(disp), v.op, w);
                            return Ok(v);
                        }
                    }
                }
                let (gid, ty) = self.global(target, name)?;
                let v = self.value_hint(rhs, Some(&ty))?;
                self.check_assignable(e, &ty, &v)?;
                self.b.store_global(gid, v.op);
                Ok(v)
            }
            ExprKind::Deref(p) => {
                let pv = self.value(p)?;
                let Some(elem) = pv.ty.pointee().cloned() else {
                    return err(e, format!("cannot store through a value of type {}", pv.ty));
                };
                let v = self.value_hint(rhs, Some(&elem))?;
                self.check_assignable(e, &elem, &v)?;
                let base = self.as_sym(&pv);
                self.b.store(
                    Address::Indirect {
                        base: Some(regalloc_ir::Loc::Sym(base)),
                        index: None,
                        disp: 0,
                    },
                    v.op,
                    self.width_of(&elem),
                );
                Ok(v)
            }
            ExprKind::Index(p, i) => {
                let (addr, elem) = self.element_address(e, p, i)?;
                let v = self.value_hint(rhs, Some(&elem))?;
                self.check_assignable(e, &elem, &v)?;
                let w = self.width_of(&elem);
                self.b.store(addr, v.op, w);
                Ok(v)
            }
            _ => err(e, "invalid assignment target"),
        }
    }

    fn check_assignable(&self, e: &Expr, ty: &CType, v: &Val) -> Result<(), CcError> {
        if v.lit || &v.ty == ty {
            Ok(())
        } else {
            err(e, format!("cannot assign {} to {}", v.ty, ty))
        }
    }

    /// `p[i]` → a scaled indirect address plus the element type. Literal
    /// indices fold into the displacement.
    fn element_address(
        &mut self,
        e: &Expr,
        p: &Expr,
        i: &Expr,
    ) -> Result<(Address, CType), CcError> {
        let pv = self.value(p)?;
        let Some(elem) = pv.ty.pointee().cloned() else {
            return err(e, format!("cannot index a value of type {}", pv.ty));
        };
        let iv = self.value(i)?;
        if !iv.lit && iv.ty != CType::Int {
            return err(e, "array indices must be `int`");
        }
        let base = self.as_sym(&pv);
        let esize = self.size_of(&elem);
        let addr = match iv.op {
            Operand::Imm(n) => Address::Indirect {
                base: Some(regalloc_ir::Loc::Sym(base)),
                index: None,
                disp: n.wrapping_mul(esize) as i32,
            },
            _ if self.opts.scaled_index => {
                let idx = self.as_sym(&iv);
                let scale = match esize {
                    8 => Scale::S8,
                    4 => Scale::S4,
                    _ => Scale::S2,
                };
                Address::Indirect {
                    base: Some(regalloc_ir::Loc::Sym(base)),
                    index: Some((regalloc_ir::Loc::Sym(idx), scale)),
                    disp: 0,
                }
            }
            _ => {
                // No scaled addressing on this target: an explicit
                // shift-and-add computes the element address.
                let idx = self.as_sym(&iv);
                let t = self.fresh(&CType::Int);
                self.b.bin(
                    BinOp::Shl,
                    t,
                    Operand::sym(idx),
                    Operand::Imm(esize.trailing_zeros() as i64),
                );
                let a = self.fresh(&pv.ty);
                self.b
                    .bin(BinOp::Add, a, Operand::sym(base), Operand::sym(t));
                Address::Indirect {
                    base: Some(regalloc_ir::Loc::Sym(a)),
                    index: None,
                    disp: 0,
                }
            }
        };
        Ok((addr, elem))
    }

    fn call(&mut self, e: &Expr, name: &str, args: &[Expr]) -> Result<Val, CcError> {
        let mut ops = Vec::with_capacity(args.len());
        for a in args {
            let v = self.value(a)?;
            if !v.lit && v.ty == CType::Long {
                return err(a, "64-bit call arguments are outside the subset");
            }
            ops.push(v.op);
        }
        let id = self.callees.id(name);
        let ret = self.fresh(&CType::Int);
        self.b.call(id, Some(ret), ops);
        self.has_call = true;
        let _ = e;
        Ok(Val {
            op: Operand::sym(ret),
            ty: CType::Int,
            lit: false,
        })
    }

    // ---- statements --------------------------------------------------

    fn stmts(&mut self, list: &[Stmt]) -> Result<(), CcError> {
        self.locals.push(HashMap::new());
        for s in list {
            if !self.open {
                break; // dead code after `return`
            }
            self.stmt(s)?;
        }
        self.locals.pop();
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), CcError> {
        match s {
            Stmt::Expr(e) => {
                self.value(e)?;
                Ok(())
            }
            Stmt::Decl { ty, name, init, .. } => {
                if self.addressed.contains(name) {
                    // Address-taken: the local lives in its fixed slot
                    // from birth and never becomes a symbolic register.
                    let op = match init {
                        Some(e) => {
                            let v = self.value_hint(e, Some(ty))?;
                            self.check_assignable(e, ty, &v)?;
                            v.op
                        }
                        None => Operand::Imm(0),
                    };
                    let disp = self.alloc_frame_slot();
                    let w = self.width_of(ty);
                    self.b.store(frame_addr(disp), op, w);
                    self.bind(name, LocalSlot::Mem(disp), ty.clone());
                    return Ok(());
                }
                let sym = self.fresh(ty);
                match init {
                    Some(e) => {
                        let v = self.value_hint(e, Some(ty))?;
                        self.check_assignable(e, ty, &v)?;
                        match v.op {
                            Operand::Imm(imm) => self.b.load_imm(sym, imm),
                            Operand::Loc(regalloc_ir::Loc::Sym(s)) => self.b.copy(sym, s),
                            _ => unreachable!(),
                        }
                    }
                    // Subset semantics: uninitialized locals are zero, so
                    // every symbolic register has a def.
                    None => self.b.load_imm(sym, 0),
                }
                self.bind(name, LocalSlot::Reg(sym), ty.clone());
                Ok(())
            }
            Stmt::Ret(val, line, col) => {
                match val {
                    Some(e) => {
                        let ty = self.ret_ty.clone();
                        let v = self.value_hint(e, Some(&ty))?;
                        self.check_assignable(e, &ty, &v)?;
                        self.b.push(Inst::Ret { val: Some(v.op) });
                    }
                    None => {
                        let _ = (line, col);
                        self.b.push(Inst::Ret { val: None });
                    }
                }
                self.open = false;
                Ok(())
            }
            Stmt::If { cond, then, els } => {
                let tb = self.b.block();
                let eb = self.b.block();
                let jb = self.b.block();
                self.condition(cond, tb, eb)?;
                self.b.switch_to(tb);
                self.open = true;
                self.stmts(then)?;
                if self.open {
                    self.b.jump(jb);
                }
                self.b.switch_to(eb);
                self.open = true;
                self.stmts(els)?;
                if self.open {
                    self.b.jump(jb);
                }
                // The join may be unreachable (both arms returned); it
                // still gets a terminator from later statements or the
                // function epilogue.
                self.b.switch_to(jb);
                self.open = true;
                Ok(())
            }
            Stmt::While { cond, body } => {
                let head = self.b.block();
                let bodyb = self.b.block();
                let exit = self.b.block();
                self.b.jump(head);
                self.b.switch_to(head);
                self.condition(cond, bodyb, exit)?;
                self.b.switch_to(bodyb);
                self.open = true;
                self.stmts(body)?;
                if self.open {
                    self.b.jump(head);
                }
                self.b.switch_to(exit);
                self.open = true;
                Ok(())
            }
        }
    }
}

fn cond_of(op: BinOpK) -> Option<Cond> {
    match op {
        BinOpK::Eq => Some(Cond::Eq),
        BinOpK::Ne => Some(Cond::Ne),
        BinOpK::Lt => Some(Cond::Lt),
        BinOpK::Le => Some(Cond::Le),
        BinOpK::Gt => Some(Cond::Gt),
        BinOpK::Ge => Some(Cond::Ge),
        _ => None,
    }
}

/// Collect every name that appears under unary `&` anywhere in `e`.
fn addressed_in_expr(e: &Expr, out: &mut HashSet<String>) {
    match &e.kind {
        ExprKind::Addr(name) => {
            out.insert(name.clone());
        }
        ExprKind::Un(_, i) | ExprKind::Deref(i) => addressed_in_expr(i, out),
        ExprKind::Bin(_, l, r) | ExprKind::Assign(l, r) | ExprKind::Index(l, r) => {
            addressed_in_expr(l, out);
            addressed_in_expr(r, out);
        }
        ExprKind::Call(_, args) => {
            for a in args {
                addressed_in_expr(a, out);
            }
        }
        ExprKind::Num(_) | ExprKind::Var(_) => {}
    }
}

fn addressed_in_stmts(stmts: &[Stmt], out: &mut HashSet<String>) {
    for st in stmts {
        match st {
            Stmt::Expr(e) | Stmt::Ret(Some(e), _, _) => addressed_in_expr(e, out),
            Stmt::Decl { init, .. } => {
                if let Some(e) = init {
                    addressed_in_expr(e, out);
                }
            }
            Stmt::Ret(None, _, _) => {}
            Stmt::If { cond, then, els } => {
                addressed_in_expr(cond, out);
                addressed_in_stmts(then, out);
                addressed_in_stmts(els, out);
            }
            Stmt::While { cond, body } => {
                addressed_in_expr(cond, out);
                addressed_in_stmts(body, out);
            }
        }
    }
}

/// Lower one parsed function definition.
fn lower_function(
    ret: &CType,
    name: &str,
    params: &[Param],
    body: &[Stmt],
    file_globals: &HashMap<String, FileGlobal>,
    callees: &mut CalleeMap,
    opts: &LowerOptions,
) -> Result<Function, CcError> {
    // Pre-scan: any name under `&` is memory-pinned for the whole
    // function (a name-level rule — the subset has no shadow-sensitive
    // aliasing).
    let mut addressed = HashSet::new();
    addressed_in_stmts(body, &mut addressed);
    let mut lw = Lower {
        b: FunctionBuilder::new(name),
        opts,
        locals: vec![HashMap::new()],
        file_globals,
        used_globals: HashMap::new(),
        used_order: Vec::new(),
        callees,
        ret_ty: ret.clone(),
        has_call: false,
        addressed,
        frame_next: 0,
        open: true,
    };
    // Parameters arrive in the IR's predefined parameter slots and are
    // loaded into assignable locals at entry; address-taken parameters
    // are immediately stored out to their fixed slots.
    let mut param_syms = Vec::new();
    for p in params {
        let g = lw.b.new_param(&p.name, lw.width_of(&p.ty));
        param_syms.push((g, p));
    }
    for (g, p) in param_syms {
        let s = lw.b.new_sym(lw.width_of(&p.ty));
        lw.b.load_global(s, g);
        let slot = if lw.addressed.contains(&p.name) {
            let disp = lw.alloc_frame_slot();
            let w = lw.width_of(&p.ty);
            lw.b.store(frame_addr(disp), Operand::sym(s), w);
            LocalSlot::Mem(disp)
        } else {
            LocalSlot::Reg(s)
        };
        lw.bind(&p.name, slot, p.ty.clone());
    }
    lw.stmts(body)?;
    if lw.open {
        // Falling off the end returns 0 (as `main` does in C).
        lw.b.push(Inst::Ret {
            val: Some(Operand::Imm(0)),
        });
    }
    if lw.has_call {
        // A callee may read or write any file-scope global.
        for g in lw.used_order.clone() {
            lw.b.mark_aliased(g);
        }
    }
    Ok(lw.b.finish())
}

/// Lower a whole parsed program to IR functions, in definition order,
/// under explicit target options.
pub fn lower_program_with(decls: &[Decl], opts: &LowerOptions) -> Result<Vec<Function>, CcError> {
    let mut callees = CalleeMap::default();
    let mut file_globals: HashMap<String, FileGlobal> = HashMap::new();
    // Pass 1: number every known function name in program order and
    // collect file-scope globals.
    for d in decls {
        match d {
            Decl::Func { name, .. } | Decl::Extern { name } => {
                callees.id(name);
            }
            Decl::Global { ty, name, init } => {
                file_globals.insert(
                    name.clone(),
                    FileGlobal {
                        ty: ty.clone(),
                        init: *init,
                    },
                );
            }
        }
    }
    // Pass 2: lower definitions.
    let mut out = Vec::new();
    for d in decls {
        if let Decl::Func {
            ret,
            name,
            params,
            body,
            line,
            col,
        } = d
        {
            if out.iter().any(|f: &Function| f.name() == name) {
                return Err(CcError::new(
                    *line,
                    *col,
                    name,
                    format!("duplicate definition of `{name}`"),
                ));
            }
            out.push(lower_function(
                ret,
                name,
                params,
                body,
                &file_globals,
                &mut callees,
                opts,
            )?);
        }
    }
    Ok(out)
}
