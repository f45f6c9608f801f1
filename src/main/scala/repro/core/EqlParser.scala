package repro.core

import repro.ctp.ScoreFunction

/** Recursive-descent parser for the concrete EQL syntax used throughout
  * the tests and benchmarks (the paper implements EQL as a SPARQL
  * extension; we use a datalog-ish surface form instead):
  *
  * {{{
  * (x, y, z, w) :- (type(x)="entrepreneur", "citizenOf", "USA"),
  *                 (type(y)="entrepreneur", "citizenOf", "France"),
  *                 (x, y, *w) [UNI, LABEL("a","b"), MAX 5,
  *                             SCORE size TOP 3, TIMEOUT 10000, LIMIT 1]
  * }}}
  *
  * - A parenthesized tuple whose last element is `*var` is a CTP; any
  *   other tuple must have exactly 3 elements and is an edge pattern.
  * - A tuple element is a quoted constant (label-equality shorthand), a
  *   bare identifier (variable), or a `&`-conjunction of conditions
  *   `label(x)="v"` / `type(x)~"v*"` (operators `=`, `<`, `<=`, `~`).
  * - Optional CTP filters follow in `[...]`.
  */
object EqlParser {

  final case class ParseException(msg: String, pos: Int)
      extends RuntimeException(s"$msg (at offset $pos)")

  def parse(input: String): EqlQuery = new P(input).query()

  private final class P(s: String) {
    private var i = 0
    private var freshCounter = 0

    private def fresh(): String = { freshCounter += 1; s"_c$freshCounter" }

    private def err(msg: String): Nothing = throw ParseException(msg, i)

    private def ws(): Unit = while (i < s.length && s(i).isWhitespace) i += 1

    private def peek: Char = if (i < s.length) s(i) else '\u0000'

    private def expect(c: Char): Unit = {
      ws()
      if (peek != c) err(s"expected '$c' but found '${peek}'")
      i += 1
    }

    private def tryConsume(c: Char): Boolean = {
      ws()
      if (peek == c) { i += 1; true } else false
    }

    private def tryKeyword(kw: String): Boolean = {
      ws()
      if (s.regionMatches(true, i, kw, 0, kw.length) &&
          (i + kw.length >= s.length || !s(i + kw.length).isLetterOrDigit)) {
        i += kw.length; true
      } else false
    }

    private def ident(): String = {
      ws()
      val start = i
      while (i < s.length && (s(i).isLetterOrDigit || s(i) == '_')) i += 1
      if (i == start) err("expected identifier")
      s.substring(start, i)
    }

    /** A decimal literal of at most `max`; a larger one fails at its
      * first digit.
      */
    private def number(max: Long = Long.MaxValue): Long = {
      ws()
      val start = i
      while (i < s.length && s(i).isDigit) i += 1
      if (i == start) err("expected number")
      s.substring(start, i).toLongOption.filter(_ <= max)
        .getOrElse(throw ParseException(s"number out of range (at most $max)", start))
    }

    private def int(): Int = number(Int.MaxValue).toInt

    private def quoted(): String = {
      ws()
      if (peek != '"') err("expected quoted string")
      i += 1
      val sb = new StringBuilder
      while (i < s.length && s(i) != '"') { sb += s(i); i += 1 }
      if (i >= s.length) err("unterminated string")
      i += 1
      sb.toString
    }

    def query(): EqlQuery = {
      val head = headVars()
      ws()
      if (!(tryConsume(':') && tryConsume('-'))) err("expected ':-'")
      val patterns = collection.mutable.ArrayBuffer.empty[EdgePattern]
      val ctps = collection.mutable.ArrayBuffer.empty[Ctp]
      var more = true
      while (more) {
        bodyItem() match {
          case Left(p)  => patterns += p
          case Right(c) => ctps += c
        }
        more = tryConsume(',')
      }
      ws()
      if (i < s.length) err(s"unexpected trailing input: '${s.substring(i)}'")
      val q = EqlQuery.of(head, patterns.toSeq, ctps.toSeq)
      val known = q.simpleUserVariables.toSet ++ q.ctps.map(_.treeVar)
      head.foreach(h =>
        if (!known.contains(h)) err(s"head variable '$h' not bound in body"))
      q
    }

    private def headVars(): Seq[String] = {
      expect('(')
      val vars = collection.mutable.ArrayBuffer.empty[String]
      if (!tryConsume(')')) {
        var more = true
        while (more) { vars += ident(); more = tryConsume(',') }
        expect(')')
      }
      vars.toSeq
    }

    /** One parenthesized tuple: an edge pattern or a CTP (+ filters). */
    private def bodyItem(): Either[EdgePattern, Ctp] = {
      expect('(')
      val elems = collection.mutable.ArrayBuffer.empty[Either[Predicate, String]]
      var more = true
      while (more) {
        ws()
        if (peek == '*') { i += 1; elems += Right(ident()) }
        else elems += Left(predicate())
        more = tryConsume(',')
      }
      expect(')')
      elems.last match {
        case Right(treeVar) =>
          val members = elems.init.map {
            case Left(p)  => p
            case Right(_) => err("only the last CTP element may be starred")
          }
          Right(Ctp(members.toSeq, treeVar, filters()))
        case Left(_) =>
          if (elems.size != 3) err(s"edge pattern needs 3 elements, got ${elems.size}")
          val ps = elems.map(_.swap.getOrElse(err("unexpected '*'")))
          Left(EdgePattern(ps(0), ps(1), ps(2)))
      }
    }

    /** Predicate: quoted shorthand, bare variable, or conditions. */
    private def predicate(): Predicate = {
      ws()
      if (peek == '"') return Predicate.labelConst(quoted(), fresh())
      val first = ident()
      ws()
      if (peek == '(') {
        // condition list: prop(var) op "value" [& ...]
        var variable: String = null
        val conds = collection.mutable.ArrayBuffer.empty[Condition]
        var prop = first
        var more = true
        while (more) {
          if (prop != "label" && prop != "type") err(s"unknown property '$prop'")
          expect('(')
          val v = ident()
          expect(')')
          if (variable == null) variable = v
          else if (variable != v) err("a predicate may constrain only one variable")
          val op = operator()
          conds += Condition(prop, op, quoted())
          more = tryConsume('&')
          if (more) prop = ident()
        }
        Predicate(variable, conds.toSeq)
      } else Predicate(first, Seq.empty)
    }

    private def operator(): Op = {
      ws()
      peek match {
        case '=' => i += 1; Op.Eq
        case '~' => i += 1; Op.Like
        case '<' =>
          i += 1
          if (peek == '=') { i += 1; Op.Le } else Op.Lt
        case c => err(s"expected operator, found '$c'")
      }
    }

    private def filters(): CtpFilters = {
      if (!tryConsume('[')) return CtpFilters()
      var f = CtpFilters()
      var more = true
      while (more) {
        ws()
        if (tryKeyword("UNI")) f = f.copy(uni = true)
        else if (tryKeyword("LABEL")) {
          expect('(')
          val ls = collection.mutable.ArrayBuffer.empty[String]
          var m2 = true
          while (m2) { ls += quoted(); m2 = tryConsume(',') }
          expect(')')
          f = f.copy(labels = Some(ls.toSet))
        }
        else if (tryKeyword("MAX")) f = f.copy(maxEdges = Some(int()))
        else if (tryKeyword("SCORE")) {
          ws()
          val at = i
          val name = ident()
          if (!ScoreFunction.registry.contains(name))
            throw ParseException(s"unknown score function '$name'", at)
          f = f.copy(score = Some(name))
          if (tryKeyword("TOP")) f = f.copy(topK = Some(int()))
        }
        else if (tryKeyword("TOP")) f = f.copy(topK = Some(int()))
        else if (tryKeyword("TIMEOUT")) f = f.copy(timeoutMs = Some(number()))
        else if (tryKeyword("LIMIT")) f = f.copy(limit = Some(int()))
        else err("unknown CTP filter")
        more = tryConsume(',')
      }
      expect(']')
      f
    }
  }
}
