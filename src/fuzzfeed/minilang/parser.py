"""Lexer and recursive-descent parser for MiniLang.

parse() is total: any input yields either a ProgramAst satisfying the
program-level invariants (exactly one 'foo', at most one 'precondition',
fixed signatures, nesting within the caps below) or a positioned diagnostic.
"""
from __future__ import annotations

from .astdefs import (
    Assign, Binary, BinarySearchCall, BoolLit, CloneCall, For, FunctionDef,
    If, Index, IndexAssign, IntLit, Len, Param, Pos, ProgramAst, Return,
    SortCall, SortStmt, Stmt, Throw, Ty, Unary, Var, VarDecl, While, FOO,
    PRECONDITION,
)
from .errors import (
    BadSignature, DuplicateFunction, MiniSyntaxError, MissingFoo,
)

KEYWORDS = {
    "int", "bool", "while", "for", "if", "else", "throw", "return",
    "true", "false", "len", "sort", "clone", "binarySearch",
}

_TWO_CHAR = {"<=", ">=", "==", "!=", "&&", "||"}
_ONE_CHAR = set("+-*/%<>!=()[]{};,")

INT_MASK = 0xFFFFFFFF
INT_SIGN = 0x80000000

# Nesting caps. Deeper input is a MiniSyntaxError, so every accepted program
# stays within what the interpreter's generated Python compiles at and what
# the recursive front end handles under the default recursion limit.
#
# MAX_BLOCK_DEPTH counts while, for and if statements nested inside one
# another. Each loop becomes one Python loop, and CPython allows at most 20
# statically nested blocks.
MAX_BLOCK_DEPTH = 20
# MAX_EXPR_DEPTH bounds the height of an expression tree (each operator,
# index and binarySearch adds a level) and how deeply its source nests
# parentheses, brackets and call arguments. A generated expression level
# costs at most two Python parentheses, against the tokenizer's limit of 200.
# The printed form of a tree (to_source) never nests deeper than the tree
# is high, so a program that parses also parses again once printed.
MAX_EXPR_DEPTH = 64


def wrap32(v: int) -> int:
    """Reduce an integer to 32-bit two's-complement."""
    v &= INT_MASK
    return v - 0x100000000 if v >= INT_SIGN else v


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind  # "ident" | "int" | "punct" | "eof"
        self.text = text
        self.line = line
        self.col = col


def _lex(source: str) -> list[_Token]:
    toks = []
    line, col = 1, 1
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "/" and i + 1 < n and source[i + 1] == "/":
            while i < n and source[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            toks.append(_Token("int", source[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            toks.append(_Token("ident", source[i:j], line, start_col))
            col += j - i
            i = j
            continue
        two = source[i:i + 2]
        if two in _TWO_CHAR:
            toks.append(_Token("punct", two, line, start_col))
            i += 2
            col += 2
            continue
        if ch in _ONE_CHAR:
            if ch in "&|":
                raise MiniSyntaxError(f"unexpected character {ch!r}", line, start_col)
            toks.append(_Token("punct", ch, line, start_col))
            i += 1
            col += 1
            continue
        raise MiniSyntaxError(f"unexpected character {ch!r}", line, start_col)
    toks.append(_Token("eof", "", line, col))
    return toks


def _int_literal(t: _Token) -> int:
    try:
        return wrap32(int(t.text))
    except ValueError:  # a non-ASCII digit, or more digits than int() reads
        raise MiniSyntaxError("malformed or overlong integer literal",
                              t.line, t.col) from None


def _expr_height(e) -> int:
    """Height of an expression tree, measured without recursion."""
    height, stack = 0, [(e, 1)]
    while stack:
        node, h = stack.pop()
        height = max(height, h)
        if isinstance(node, Binary):
            stack += ((node.left, h + 1), (node.right, h + 1))
        elif isinstance(node, Unary):
            stack.append((node.operand, h + 1))
        elif isinstance(node, Index):
            stack.append((node.index, h + 1))
        elif isinstance(node, BinarySearchCall):
            stack.append((node.key, h + 1))
    return height


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.toks = tokens
        self.i = 0
        self.block_depth = 0
        self.expr_depth = 0

    # -- token plumbing --

    def peek(self) -> _Token:
        return self.toks[self.i]

    def next(self) -> _Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def at(self, text: str) -> bool:
        t = self.toks[self.i]
        return t.text == text and t.kind in ("punct", "ident")

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.i += 1
            return True
        return False

    def expect(self, text: str) -> _Token:
        t = self.toks[self.i]
        if t.text != text or t.kind == "eof":
            raise MiniSyntaxError(f"expected {text!r}, found {t.text or 'end of input'!r}",
                                  t.line, t.col)
        self.i += 1
        return t

    def expect_ident(self) -> _Token:
        t = self.toks[self.i]
        if t.kind != "ident" or t.text in KEYWORDS:
            raise MiniSyntaxError(f"expected identifier, found {t.text or 'end of input'!r}",
                                  t.line, t.col)
        self.i += 1
        return t

    @staticmethod
    def pos(t: _Token) -> Pos:
        return Pos(t.line, t.col)

    # -- grammar --

    def program(self) -> list[FunctionDef]:
        if self.peek().kind == "eof":
            raise MissingFoo("program is empty")
        funcs = [self.funcdef()]
        while self.peek().kind != "eof":
            funcs.append(self.funcdef())
        return funcs

    def type_name(self) -> Ty:
        t = self.peek()
        if self.accept("int"):
            if self.accept("["):
                self.expect("]")
                return Ty.INT_ARRAY
            return Ty.INT
        if self.accept("bool"):
            return Ty.BOOL
        raise MiniSyntaxError(f"expected a type, found {t.text!r}", t.line, t.col)

    def funcdef(self) -> FunctionDef:
        t0 = self.peek()
        ret = self.type_name()
        if ret is Ty.INT_ARRAY:
            raise MiniSyntaxError("functions cannot return arrays", t0.line, t0.col)
        name_tok = self.expect_ident()
        self.expect("(")
        params = []
        if not self.at(")"):
            while True:
                pt = self.type_name()
                pn = self.expect_ident()
                params.append(Param(pn.text, pt))
                if not self.accept(","):
                    break
        self.expect(")")
        body = self.block()
        return FunctionDef(name_tok.text, tuple(params), ret, body, self.pos(name_tok))

    def block(self) -> tuple[Stmt, ...]:
        self.expect("{")
        stmts = []
        while not self.accept("}"):
            stmts.append(self.stmt())
        return tuple(stmts)

    def nested_block(self, t: _Token) -> tuple[Stmt, ...]:
        """The body of the while/for/if statement starting at token t."""
        if self.block_depth == MAX_BLOCK_DEPTH:
            raise MiniSyntaxError(
                f"statements nested more than {MAX_BLOCK_DEPTH} deep",
                t.line, t.col)
        self.block_depth += 1
        body = self.block()
        self.block_depth -= 1
        return body

    def stmt(self) -> Stmt:
        t = self.peek()
        if self.at("int") or self.at("bool"):
            return self.decl_stmt()
        if self.accept("while"):
            self.expect("(")
            cond = self.expr()
            self.expect(")")
            return While(cond, self.nested_block(t), self.pos(t))
        if self.accept("for"):
            self.expect("(")
            if self.at("int") or self.at("bool"):
                init = self.decl_core()
            else:
                init = self.assign_core()
            self.expect(";")
            cond = self.expr()
            self.expect(";")
            update = self.assign_core()
            self.expect(")")
            return For(init, cond, update, self.nested_block(t), self.pos(t))
        if self.accept("if"):
            self.expect("(")
            cond = self.expr()
            self.expect(")")
            then_body = self.nested_block(t)
            else_body = self.nested_block(t) if self.accept("else") else None
            return If(cond, then_body, else_body, self.pos(t))
        if self.accept("throw"):
            self.expect(";")
            return Throw(self.pos(t))
        if self.accept("return"):
            value = self.expr()
            self.expect(";")
            return Return(value, self.pos(t))
        if self.at("sort"):
            self.next()
            self.expect("(")
            arr = self.expect_ident()
            self.expect(")")
            self.expect(";")
            return SortStmt(arr.text, self.pos(t))
        if t.kind == "ident" and t.text not in KEYWORDS:
            if self.toks[self.i + 1].text == "[":
                name = self.next()
                self.expect("[")
                idx = self.expr()
                self.expect("]")
                self.expect("=")
                value = self.expr()
                self.expect(";")
                return IndexAssign(name.text, idx, value, self.pos(t))
            s = self.assign_core()
            self.expect(";")
            return s
        raise MiniSyntaxError(f"expected a statement, found {t.text or 'end of input'!r}",
                              t.line, t.col)

    def decl_stmt(self) -> VarDecl:
        d = self.decl_core()
        self.expect(";")
        return d

    def decl_core(self) -> VarDecl:
        t = self.peek()
        ty = self.type_name()
        name = self.expect_ident()
        self.expect("=")
        return VarDecl(ty, name.text, self.expr(), self.pos(t))

    def assign_core(self) -> Assign:
        name = self.expect_ident()
        self.expect("=")
        return Assign(name.text, self.expr(), self.pos(name))

    # expression precedence, loosest first
    def expr(self):
        """An expression; recursion re-enters here for every parenthesized
        group, index and call argument, so the depth check bounds it."""
        t = self.peek()
        if self.expr_depth == MAX_EXPR_DEPTH:
            raise self.too_deep(t)
        self.expr_depth += 1
        e = self.or_expr()
        self.expr_depth -= 1
        # Operator chains are built by loops, so check the finished tree.
        if self.expr_depth == 0 and _expr_height(e) > MAX_EXPR_DEPTH:
            raise self.too_deep(t)
        return e

    @staticmethod
    def too_deep(t: _Token) -> MiniSyntaxError:
        return MiniSyntaxError(
            f"expression nested more than {MAX_EXPR_DEPTH} deep", t.line, t.col)

    def or_expr(self):
        e = self.and_expr()
        while self.at("||"):
            t = self.next()
            e = Binary("||", e, self.and_expr(), self.pos(t))
        return e

    def and_expr(self):
        e = self.equality()
        while self.at("&&"):
            t = self.next()
            e = Binary("&&", e, self.equality(), self.pos(t))
        return e

    def equality(self):
        e = self.relational()
        while self.at("==") or self.at("!="):
            t = self.next()
            e = Binary(t.text, e, self.relational(), self.pos(t))
        return e

    def relational(self):
        e = self.additive()
        while self.at("<") or self.at("<=") or self.at(">") or self.at(">="):
            t = self.next()
            e = Binary(t.text, e, self.additive(), self.pos(t))
        return e

    def additive(self):
        e = self.multiplicative()
        while self.at("+") or self.at("-"):
            t = self.next()
            e = Binary(t.text, e, self.multiplicative(), self.pos(t))
        return e

    def multiplicative(self):
        e = self.unary()
        while self.at("*") or self.at("/") or self.at("%"):
            t = self.next()
            e = Binary(t.text, e, self.unary(), self.pos(t))
        return e

    def unary(self):
        # Prefix operators are read in a loop, not by recursion, so a long
        # run of them is caught by the height check instead of the stack.
        ops = []
        while self.at("-") or self.at("!"):
            t = self.next()
            if t.text == "-" and self.peek().kind == "int":
                # Fold minus into a directly following integer token, so a
                # negative literal is one IntLit and printing it round-trips.
                e = IntLit(wrap32(-_int_literal(self.next())), self.pos(t))
                break
            ops.append(t)
        else:
            e = self.primary()
        for t in reversed(ops):
            e = Unary(t.text, e, self.pos(t))
        return e

    def primary(self):
        t = self.peek()
        if t.kind == "int":
            self.next()
            return IntLit(_int_literal(t), self.pos(t))
        if self.accept("true"):
            return BoolLit(True, self.pos(t))
        if self.accept("false"):
            return BoolLit(False, self.pos(t))
        if self.accept("("):
            e = self.expr()
            self.expect(")")
            return e
        if self.at("len"):
            self.next()
            self.expect("(")
            arr = self.expect_ident()
            self.expect(")")
            return Len(arr.text, self.pos(t))
        if self.at("sort"):
            self.next()
            self.expect("(")
            arr = self.expect_ident()
            self.expect(")")
            return SortCall(arr.text, self.pos(t))
        if self.at("clone"):
            self.next()
            self.expect("(")
            arr = self.expect_ident()
            self.expect(")")
            return CloneCall(arr.text, self.pos(t))
        if self.at("binarySearch"):
            self.next()
            self.expect("(")
            arr = self.expect_ident()
            self.expect(",")
            key = self.expr()
            self.expect(")")
            return BinarySearchCall(arr.text, key, self.pos(t))
        if t.kind == "ident" and t.text not in KEYWORDS:
            self.next()
            if self.accept("["):
                idx = self.expr()
                self.expect("]")
                return Index(t.text, idx, self.pos(t))
            return Var(t.text, self.pos(t))
        raise MiniSyntaxError(f"expected an expression, found {t.text or 'end of input'!r}",
                              t.line, t.col)


_EXPECTED_PARAMS = (
    Param("a", Ty.INT_ARRAY), Param("b", Ty.INT_ARRAY), Param("c", Ty.INT_ARRAY),
)


def _check_program_shape(funcs: list[FunctionDef], source: str) -> ProgramAst:
    by_name: dict[str, FunctionDef] = {}
    for f in funcs:
        if f.name in by_name:
            raise DuplicateFunction(f"function {f.name!r} defined twice",
                                    f.pos.line, f.pos.col)
        by_name[f.name] = f
    for f in funcs:
        if f.name not in (FOO, PRECONDITION):
            raise BadSignature(
                f"only 'foo' and 'precondition' may be defined, found {f.name!r}",
                f.pos.line, f.pos.col)
        if f.params != _EXPECTED_PARAMS:
            raise BadSignature(
                f"{f.name!r} must take exactly (int[] a, int[] b, int[] c)",
                f.pos.line, f.pos.col)
        want = Ty.INT if f.name == FOO else Ty.BOOL
        if f.return_type is not want:
            raise BadSignature(f"{f.name!r} must return {want}", f.pos.line, f.pos.col)
    if FOO not in by_name:
        raise MissingFoo("program does not define 'foo'")
    # Keep 'foo' first regardless of source order.
    ordered = {FOO: by_name[FOO]}
    ordered.update((n, f) for n, f in by_name.items() if n != FOO)
    return ProgramAst(ordered, source)


def parse(source: str) -> ProgramAst:
    """Parse MiniLang source into a ProgramAst, or raise a diagnostic."""
    parser = _Parser(_lex(source))
    funcs = parser.program()
    return _check_program_shape(funcs, source)
