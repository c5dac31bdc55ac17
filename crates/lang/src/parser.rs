//! Recursive-descent parser for Phage-C.

use crate::ast::*;
use crate::token::{Token, TokenKind};
use crate::types::Type;
use crate::{LangError, Result};

/// The Phage-C parser.
///
/// Construct with [`Parser::new`] over a token stream produced by
/// [`crate::lexer::lex`], then call [`Parser::parse_program`] (or
/// [`Parser::parse_expression`] for a standalone expression, which is how
/// Code Phage re-parses generated patch conditions).
pub struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    depth: usize,
}

/// Maximum recursive nesting the parser accepts — across expressions
/// (parentheses, unary chains, index/call arguments), statements (blocks,
/// `if`/`while` bodies) and types (`ptr<ptr<…>>`).
///
/// Deeply nested *generated* programs (the roadmap's grammar-driven corpus)
/// must produce a spanned diagnostic, not a stack overflow: each recursion
/// level costs a handful of stack frames, so the limit keeps the parser
/// comfortably inside even a test thread's 2 MiB stack while leaving far
/// more headroom than any real program uses.
pub const MAX_NESTING_DEPTH: usize = 128;

impl Parser {
    /// Creates a parser over a token stream.
    pub fn new(tokens: Vec<Token>) -> Self {
        Parser {
            tokens,
            pos: 0,
            depth: 0,
        }
    }

    /// Enters one nesting level, diagnosing [`MAX_NESTING_DEPTH`] overruns
    /// at the current token.  Paired with a `self.depth -= 1` on the
    /// wrapper's exit; error paths abandon the parse outright, so their
    /// stale depth is never observed.
    fn descend(&mut self) -> Result<()> {
        self.depth += 1;
        if self.depth > MAX_NESTING_DEPTH {
            return Err(LangError::new(
                format!("nesting exceeds the maximum depth of {MAX_NESTING_DEPTH}"),
                self.peek().span,
            ));
        }
        Ok(())
    }

    /// Parses a complete program.
    ///
    /// # Errors
    ///
    /// Returns a [`LangError`] describing the first syntax error.
    pub fn parse_program(mut self) -> Result<Program> {
        let mut program = Program::default();
        while !self.check(&TokenKind::Eof) {
            match self.parse_item()? {
                Item::Struct(s) => program.structs.push(s),
                Item::Global(g) => program.globals.push(g),
                Item::Function(f) => program.functions.push(f),
            }
        }
        Ok(program)
    }

    /// Parses a single expression followed by end of input.
    ///
    /// # Errors
    ///
    /// Returns a [`LangError`] if the text is not a single valid expression.
    pub fn parse_expression(mut self) -> Result<Expr> {
        let expr = self.parse_expr()?;
        self.expect(TokenKind::Eof)?;
        Ok(expr)
    }

    fn parse_item(&mut self) -> Result<Item> {
        let token = self.peek();
        match &token.kind {
            TokenKind::Struct => self.parse_struct().map(Item::Struct),
            TokenKind::Global => self.parse_global().map(Item::Global),
            TokenKind::Fn => self.parse_function().map(Item::Function),
            other => Err(LangError::new(
                format!("expected item, found {}", other.describe()),
                token.span,
            )),
        }
    }

    fn parse_struct(&mut self) -> Result<StructDef> {
        let start = self.expect(TokenKind::Struct)?.span;
        let name = self.expect_ident()?;
        self.expect(TokenKind::LBrace)?;
        let mut fields = Vec::new();
        while !self.check(&TokenKind::RBrace) {
            let field_name = self.expect_ident()?;
            self.expect(TokenKind::Colon)?;
            let ty = self.parse_type()?;
            fields.push((field_name, ty));
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        let end = self.expect(TokenKind::RBrace)?.span;
        Ok(StructDef {
            name,
            fields,
            span: start.to(end),
        })
    }

    fn parse_global(&mut self) -> Result<GlobalDef> {
        let start = self.expect(TokenKind::Global)?.span;
        let name = self.expect_ident()?;
        self.expect(TokenKind::Colon)?;
        let ty = self.parse_type()?;
        self.expect(TokenKind::Assign)?;
        let init = self.expect_int()?;
        let end = self.expect(TokenKind::Semicolon)?.span;
        Ok(GlobalDef {
            name,
            ty,
            init,
            span: start.to(end),
        })
    }

    fn parse_function(&mut self) -> Result<Function> {
        let start = self.expect(TokenKind::Fn)?.span;
        let name = self.expect_ident()?;
        self.expect(TokenKind::LParen)?;
        let mut params = Vec::new();
        while !self.check(&TokenKind::RParen) {
            let param_name = self.expect_ident()?;
            self.expect(TokenKind::Colon)?;
            let ty = self.parse_type()?;
            params.push(Param {
                name: param_name,
                ty,
            });
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(TokenKind::RParen)?;
        let ret = if self.eat(&TokenKind::Arrow) {
            Some(self.parse_type()?)
        } else {
            None
        };
        let body = self.parse_block()?;
        Ok(Function {
            name,
            params,
            ret,
            body,
            span: start,
        })
    }

    fn parse_type(&mut self) -> Result<Type> {
        self.descend()?;
        let ty = self.parse_type_inner();
        self.depth -= 1;
        ty
    }

    fn parse_type_inner(&mut self) -> Result<Type> {
        let token = self.advance();
        match token.kind {
            TokenKind::Ptr => {
                self.expect(TokenKind::Lt)?;
                let inner = self.parse_type()?;
                self.expect(TokenKind::Gt)?;
                Ok(Type::Ptr(Box::new(inner)))
            }
            TokenKind::Ident(name) => {
                if let Some(prim) = Type::primitive_from_name(&name) {
                    Ok(prim)
                } else {
                    Ok(Type::Struct(name))
                }
            }
            other => Err(LangError::new(
                format!("expected type, found {}", other.describe()),
                token.span,
            )),
        }
    }

    fn parse_block(&mut self) -> Result<Vec<Stmt>> {
        self.expect(TokenKind::LBrace)?;
        let mut stmts = Vec::new();
        while !self.check(&TokenKind::RBrace) {
            stmts.push(self.parse_stmt()?);
        }
        self.expect(TokenKind::RBrace)?;
        Ok(stmts)
    }

    fn parse_stmt(&mut self) -> Result<Stmt> {
        self.descend()?;
        let stmt = self.parse_stmt_inner();
        self.depth -= 1;
        stmt
    }

    fn parse_stmt_inner(&mut self) -> Result<Stmt> {
        match self.peek().kind {
            TokenKind::Var => self.parse_var_decl(),
            TokenKind::If => self.parse_if(),
            TokenKind::While => self.parse_while(),
            TokenKind::Return => {
                let span = self.advance().span;
                let value = if self.check(&TokenKind::Semicolon) {
                    None
                } else {
                    Some(self.parse_expr()?)
                };
                self.expect(TokenKind::Semicolon)?;
                Ok(Stmt::new(StmtKind::Return(value), span))
            }
            TokenKind::Exit => {
                let span = self.advance().span;
                self.expect(TokenKind::LParen)?;
                let code = self.parse_expr()?;
                self.expect(TokenKind::RParen)?;
                self.expect(TokenKind::Semicolon)?;
                Ok(Stmt::new(StmtKind::Exit(code), span))
            }
            _ => {
                // Either an assignment or an expression statement.
                let expr = self.parse_expr()?;
                if self.eat(&TokenKind::Assign) {
                    let value = self.parse_expr()?;
                    self.expect(TokenKind::Semicolon)?;
                    let span = expr.span.to(value.span);
                    Ok(Stmt::new(
                        StmtKind::Assign {
                            target: expr,
                            value,
                        },
                        span,
                    ))
                } else {
                    self.expect(TokenKind::Semicolon)?;
                    let span = expr.span;
                    Ok(Stmt::new(StmtKind::Expr(expr), span))
                }
            }
        }
    }

    fn parse_var_decl(&mut self) -> Result<Stmt> {
        let span = self.expect(TokenKind::Var)?.span;
        let name = self.expect_ident()?;
        self.expect(TokenKind::Colon)?;
        let ty = self.parse_type()?;
        let init = if self.eat(&TokenKind::Assign) {
            Some(self.parse_expr()?)
        } else {
            None
        };
        self.expect(TokenKind::Semicolon)?;
        Ok(Stmt::new(StmtKind::VarDecl { name, ty, init }, span))
    }

    fn parse_if(&mut self) -> Result<Stmt> {
        let span = self.expect(TokenKind::If)?.span;
        self.expect(TokenKind::LParen)?;
        let cond = self.parse_expr()?;
        self.expect(TokenKind::RParen)?;
        let then_block = self.parse_block()?;
        let else_block = if self.eat(&TokenKind::Else) {
            if self.check(&TokenKind::If) {
                // `else if` sugar: wrap the nested if in a block.
                Some(vec![self.parse_if()?])
            } else {
                Some(self.parse_block()?)
            }
        } else {
            None
        };
        Ok(Stmt::new(
            StmtKind::If {
                cond,
                then_block,
                else_block,
            },
            span,
        ))
    }

    fn parse_while(&mut self) -> Result<Stmt> {
        let span = self.expect(TokenKind::While)?.span;
        self.expect(TokenKind::LParen)?;
        let cond = self.parse_expr()?;
        self.expect(TokenKind::RParen)?;
        let body = self.parse_block()?;
        Ok(Stmt::new(StmtKind::While { cond, body }, span))
    }

    /// Expression parsing: precedence climbing.
    fn parse_expr(&mut self) -> Result<Expr> {
        self.descend()?;
        let expr = self.parse_logical_or();
        self.depth -= 1;
        expr
    }

    fn parse_logical_or(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_logical_and()?;
        while self.eat(&TokenKind::OrOr) {
            let rhs = self.parse_logical_and()?;
            lhs = binary(BinaryOp::LogicalOr, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_logical_and(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_bit_or()?;
        while self.eat(&TokenKind::AndAnd) {
            let rhs = self.parse_bit_or()?;
            lhs = binary(BinaryOp::LogicalAnd, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_bit_or(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_bit_xor()?;
        while self.eat(&TokenKind::Pipe) {
            let rhs = self.parse_bit_xor()?;
            lhs = binary(BinaryOp::Or, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_bit_xor(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_bit_and()?;
        while self.eat(&TokenKind::Caret) {
            let rhs = self.parse_bit_and()?;
            lhs = binary(BinaryOp::Xor, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_bit_and(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_equality()?;
        while self.eat(&TokenKind::Amp) {
            let rhs = self.parse_equality()?;
            lhs = binary(BinaryOp::And, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_equality(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_relational()?;
        loop {
            let op = if self.eat(&TokenKind::EqEq) {
                BinaryOp::Eq
            } else if self.eat(&TokenKind::NotEq) {
                BinaryOp::Ne
            } else {
                break;
            };
            let rhs = self.parse_relational()?;
            lhs = binary(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_relational(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_shift()?;
        loop {
            let op = if self.eat(&TokenKind::Le) {
                BinaryOp::Le
            } else if self.eat(&TokenKind::Ge) {
                BinaryOp::Ge
            } else if self.eat(&TokenKind::Lt) {
                BinaryOp::Lt
            } else if self.eat(&TokenKind::Gt) {
                BinaryOp::Gt
            } else {
                break;
            };
            let rhs = self.parse_shift()?;
            lhs = binary(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_shift(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_additive()?;
        loop {
            let op = if self.eat(&TokenKind::Shl) {
                BinaryOp::Shl
            } else if self.eat(&TokenKind::Shr) {
                BinaryOp::Shr
            } else {
                break;
            };
            let rhs = self.parse_additive()?;
            lhs = binary(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_additive(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_multiplicative()?;
        loop {
            let op = if self.eat(&TokenKind::Plus) {
                BinaryOp::Add
            } else if self.eat(&TokenKind::Minus) {
                BinaryOp::Sub
            } else {
                break;
            };
            let rhs = self.parse_multiplicative()?;
            lhs = binary(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_multiplicative(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_cast()?;
        loop {
            let op = if self.eat(&TokenKind::Star) {
                BinaryOp::Mul
            } else if self.eat(&TokenKind::Slash) {
                BinaryOp::Div
            } else if self.eat(&TokenKind::Percent) {
                BinaryOp::Rem
            } else {
                break;
            };
            let rhs = self.parse_cast()?;
            lhs = binary(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_cast(&mut self) -> Result<Expr> {
        let mut expr = self.parse_unary()?;
        while self.eat(&TokenKind::As) {
            let ty = self.parse_type()?;
            let span = expr.span;
            expr = Expr::new(
                ExprKind::Cast {
                    expr: Box::new(expr),
                    ty,
                },
                span,
            );
        }
        Ok(expr)
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        self.descend()?;
        let expr = self.parse_unary_inner();
        self.depth -= 1;
        expr
    }

    fn parse_unary_inner(&mut self) -> Result<Expr> {
        let span = self.peek().span;
        let op = match self.peek().kind {
            TokenKind::Minus => Some(UnaryOp::Neg),
            TokenKind::Tilde => Some(UnaryOp::Not),
            TokenKind::Bang => Some(UnaryOp::LogicalNot),
            TokenKind::Star => {
                self.advance();
                let inner = self.parse_unary()?;
                return Ok(Expr::new(ExprKind::Deref(Box::new(inner)), span));
            }
            TokenKind::Amp => {
                self.advance();
                let inner = self.parse_unary()?;
                return Ok(Expr::new(ExprKind::AddrOf(Box::new(inner)), span));
            }
            _ => None,
        };
        if let Some(op) = op {
            self.advance();
            let inner = self.parse_unary()?;
            return Ok(Expr::new(
                ExprKind::Unary {
                    op,
                    expr: Box::new(inner),
                },
                span,
            ));
        }
        self.parse_postfix()
    }

    fn parse_postfix(&mut self) -> Result<Expr> {
        let mut expr = self.parse_primary()?;
        loop {
            if self.eat(&TokenKind::Dot) {
                let field = self.expect_ident()?;
                let span = expr.span;
                expr = Expr::new(
                    ExprKind::Field {
                        base: Box::new(expr),
                        field,
                    },
                    span,
                );
            } else if self.eat(&TokenKind::LBracket) {
                let index = self.parse_expr()?;
                self.expect(TokenKind::RBracket)?;
                let span = expr.span;
                expr = Expr::new(
                    ExprKind::Index {
                        base: Box::new(expr),
                        index: Box::new(index),
                    },
                    span,
                );
            } else {
                return Ok(expr);
            }
        }
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        let token = self.advance();
        match token.kind {
            TokenKind::Int(value) => Ok(Expr::new(ExprKind::Int(value), token.span)),
            TokenKind::Sizeof => {
                self.expect(TokenKind::LParen)?;
                let ty = self.parse_type()?;
                self.expect(TokenKind::RParen)?;
                Ok(Expr::new(ExprKind::Sizeof(ty), token.span))
            }
            TokenKind::Ident(name) => {
                if self.check(&TokenKind::LParen) {
                    self.advance();
                    let mut args = Vec::new();
                    while !self.check(&TokenKind::RParen) {
                        args.push(self.parse_expr()?);
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                    self.expect(TokenKind::RParen)?;
                    Ok(Expr::new(ExprKind::Call { name, args }, token.span))
                } else {
                    Ok(Expr::new(ExprKind::Var(name), token.span))
                }
            }
            TokenKind::LParen => {
                let expr = self.parse_expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(expr)
            }
            other => Err(LangError::new(
                format!("expected expression, found {}", other.describe()),
                token.span,
            )),
        }
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    /// Consumes the current token and returns it.  The parser never looks
    /// back, so the token's payload is moved out rather than cloned; the
    /// final `Eof` is never consumed, so every later peek still sees it.
    fn advance(&mut self) -> Token {
        let last = self.tokens.len() - 1;
        if self.pos >= last {
            return self.tokens[last].clone();
        }
        let token = &mut self.tokens[self.pos];
        self.pos += 1;
        Token {
            kind: std::mem::replace(&mut token.kind, TokenKind::Eof),
            span: token.span,
        }
    }

    fn check(&self, kind: &TokenKind) -> bool {
        &self.peek().kind == kind
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.check(kind) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<Token> {
        if self.check(&kind) {
            Ok(self.advance())
        } else {
            let token = self.peek();
            Err(LangError::new(
                format!(
                    "expected {}, found {}",
                    kind.describe(),
                    token.kind.describe()
                ),
                token.span,
            ))
        }
    }

    fn expect_ident(&mut self) -> Result<String> {
        let token = self.advance();
        match token.kind {
            TokenKind::Ident(name) => Ok(name),
            other => Err(LangError::new(
                format!("expected identifier, found {}", other.describe()),
                token.span,
            )),
        }
    }

    fn expect_int(&mut self) -> Result<u64> {
        let token = self.advance();
        match token.kind {
            TokenKind::Int(value) => Ok(value),
            other => Err(LangError::new(
                format!("expected integer, found {}", other.describe()),
                token.span,
            )),
        }
    }
}

fn binary(op: BinaryOp, lhs: Expr, rhs: Expr) -> Expr {
    let span = lhs.span.to(rhs.span);
    Expr::new(
        ExprKind::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        },
        span,
    )
}

/// Parses a standalone expression (used when re-parsing generated patches).
///
/// # Errors
///
/// Returns a [`LangError`] if the text is not a single valid expression.
pub fn parse_expr_text(text: &str) -> Result<Expr> {
    let tokens = crate::lexer::lex(text)?;
    Parser::new(tokens).parse_expression()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;

    #[test]
    fn parses_struct_global_and_function() {
        let source = r#"
            struct Image { width: u16, height: u16, data: ptr<u8>, }
            global limit: u32 = 16384;
            fn area(img: ptr<Image>) -> u32 {
                return (img.width as u32) * (img.height as u32);
            }
        "#;
        let program = parse_program(source).unwrap();
        assert_eq!(program.structs.len(), 1);
        assert_eq!(program.globals.len(), 1);
        assert_eq!(program.functions.len(), 1);
        assert_eq!(program.structs[0].fields.len(), 3);
    }

    #[test]
    fn precedence_of_arithmetic_over_comparison() {
        let expr = parse_expr_text("a + b * c <= d").unwrap();
        match expr.kind {
            ExprKind::Binary { op, .. } => assert_eq!(op, BinaryOp::Le),
            _ => panic!("expected comparison at the root"),
        }
    }

    #[test]
    fn precedence_of_shift_below_additive() {
        let expr = parse_expr_text("a << b + c").unwrap();
        match expr.kind {
            ExprKind::Binary { op, rhs, .. } => {
                assert_eq!(op, BinaryOp::Shl);
                match rhs.kind {
                    ExprKind::Binary { op, .. } => assert_eq!(op, BinaryOp::Add),
                    _ => panic!("expected addition on the right of the shift"),
                }
            }
            _ => panic!("expected shift at the root"),
        }
    }

    #[test]
    fn parses_casts_and_sizeof() {
        let expr = parse_expr_text("(x as u64) * sizeof(u32)").unwrap();
        match expr.kind {
            ExprKind::Binary { op, .. } => assert_eq!(op, BinaryOp::Mul),
            _ => panic!("expected multiplication"),
        }
    }

    #[test]
    fn parses_pointer_operations() {
        let expr = parse_expr_text("*p + buf[i] + img.width").unwrap();
        // Just checking that it parses; the structure is exercised elsewhere.
        assert!(matches!(expr.kind, ExprKind::Binary { .. }));
    }

    #[test]
    fn parses_else_if_chains() {
        let source = r#"
            fn f(x: u32) -> u32 {
                if (x == 0) { return 1; } else if (x == 1) { return 2; } else { return 3; }
            }
        "#;
        let program = parse_program(source).unwrap();
        match &program.functions[0].body[0].kind {
            StmtKind::If { else_block, .. } => assert!(else_block.is_some()),
            _ => panic!("expected if"),
        }
    }

    #[test]
    fn parses_while_loops_and_calls() {
        let source = r#"
            fn main() -> u32 {
                var i: u64 = 0;
                var sum: u32 = 0;
                while (i < input_len()) {
                    sum = sum + (input_byte(i) as u32);
                    i = i + 1;
                }
                output(sum as u64);
                return sum;
            }
        "#;
        let program = parse_program(source).unwrap();
        assert_eq!(program.functions[0].body.len(), 5);
    }

    #[test]
    fn reports_syntax_errors_with_location() {
        let err = parse_program("fn f() { var x u32; }").unwrap_err();
        assert!(err.message.contains("expected"));
        assert!(err.span.is_some());
    }

    #[test]
    fn logical_operators_have_lowest_precedence() {
        let expr = parse_expr_text("a < b && c < d || e == f").unwrap();
        match expr.kind {
            ExprKind::Binary { op, .. } => assert_eq!(op, BinaryOp::LogicalOr),
            _ => panic!("expected logical or at the root"),
        }
    }
}
