package tclish

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Command is a builtin or registered command: it receives the substituted
// argument words (args[0] is the command name) and returns a result
// string.
type Command func(in *Interp, args []string) (string, error)

// Control-flow signals travel as sentinel errors.
var (
	errBreak    = errors.New("tclish: break outside loop")
	errContinue = errors.New("tclish: continue outside loop")
)

// returnSignal unwinds a proc body.
type returnSignal struct{ value string }

func (returnSignal) Error() string { return "tclish: return outside proc" }

// Interp is one interpreter instance.  It is not safe for concurrent use;
// cluster controllers run one interpreter per control session.
type Interp struct {
	commands map[string]Command
	frames   []map[string]string // frames[0] is the global scope
	out      io.Writer
	depth    int

	// LoopLimit bounds while/for iterations so a runaway control script
	// fails instead of hanging the session.  Defaults to DefaultLoopLimit.
	LoopLimit int
}

// MaxDepth bounds recursive evaluation (procs calling procs, bracket
// nesting) so runaway scripts fail instead of exhausting the stack.
const MaxDepth = 200

// DefaultLoopLimit is the default iteration bound of while and for.
const DefaultLoopLimit = 10_000_000

// New returns an interpreter with the core command set.  Output of puts
// goes to out (io.Discard when nil).
func New(out io.Writer) *Interp {
	if out == nil {
		out = io.Discard
	}
	in := &Interp{
		commands:  make(map[string]Command),
		frames:    []map[string]string{make(map[string]string)},
		out:       out,
		LoopLimit: DefaultLoopLimit,
	}
	registerCore(in)
	return in
}

// Register adds or replaces a command.
func (in *Interp) Register(name string, cmd Command) { in.commands[name] = cmd }

// frame returns the current variable scope.
func (in *Interp) frame() map[string]string { return in.frames[len(in.frames)-1] }

// SetVar sets a variable in the current scope.
func (in *Interp) SetVar(name, value string) { in.frame()[name] = value }

// Var reads a variable from the current scope, falling back to the global
// scope (a pragmatic simplification of Tcl's explicit `global`).
func (in *Interp) Var(name string) (string, bool) {
	if v, ok := in.frame()[name]; ok {
		return v, true
	}
	if v, ok := in.frames[0][name]; ok {
		return v, true
	}
	return "", false
}

// Eval runs a script and returns the result of its last command.
func (in *Interp) Eval(script string) (string, error) {
	in.depth++
	defer func() { in.depth-- }()
	if in.depth > MaxDepth {
		return "", fmt.Errorf("tclish: evaluation nested deeper than %d", MaxDepth)
	}
	p := &parser{src: script}
	result := ""
	for {
		p.skipCommandSeparators()
		if p.eof() {
			return result, nil
		}
		var words []word
		for {
			p.skipBlank()
			if p.atCommandEnd() {
				break
			}
			w, err := p.nextWord()
			if err != nil {
				return "", err
			}
			words = append(words, w)
		}
		if len(words) == 0 {
			continue
		}
		args := make([]string, len(words))
		for i, w := range words {
			if w.braced {
				args[i] = w.text
				continue
			}
			sub, err := in.Substitute(w.text)
			if err != nil {
				return "", err
			}
			args[i] = sub
		}
		var err error
		result, err = in.invoke(args)
		if err != nil {
			return result, err
		}
	}
}

func (in *Interp) invoke(args []string) (string, error) {
	cmd, ok := in.commands[args[0]]
	if !ok {
		return "", fmt.Errorf("tclish: unknown command %q", args[0])
	}
	return cmd(in, args)
}

// Substitute performs $variable, [command] and backslash substitution on
// one word.
func (in *Interp) Substitute(s string) (string, error) {
	if !strings.ContainsAny(s, "$[\\") {
		return s, nil
	}
	var b strings.Builder
	for i := 0; i < len(s); {
		switch s[i] {
		case '\\':
			if i+1 >= len(s) {
				b.WriteByte('\\')
				i++
				continue
			}
			b.WriteByte(unescape(s[i+1]))
			i += 2
		case '$':
			name, next, err := scanVarName(s, i+1)
			if err != nil {
				return "", err
			}
			if name == "" { // a lone dollar sign
				b.WriteByte('$')
				i++
				continue
			}
			v, ok := in.Var(name)
			if !ok {
				return "", fmt.Errorf("tclish: no such variable %q", name)
			}
			b.WriteString(v)
			i = next
		case '[':
			script, next, err := scanBracket(s, i)
			if err != nil {
				return "", err
			}
			res, err := in.Eval(script)
			if err != nil {
				return "", err
			}
			b.WriteString(res)
			i = next
		default:
			b.WriteByte(s[i])
			i++
		}
	}
	return b.String(), nil
}

func unescape(c byte) byte {
	switch c {
	case 'n':
		return '\n'
	case 't':
		return '\t'
	case 'r':
		return '\r'
	default:
		return c
	}
}

// scanVarName reads a variable name at s[i:] (after the $): either
// ${name} or an alphanumeric/underscore run.  It returns the name and the
// index after it.
func scanVarName(s string, i int) (string, int, error) {
	if i < len(s) && s[i] == '{' {
		end := strings.IndexByte(s[i:], '}')
		if end < 0 {
			return "", 0, fmt.Errorf("%w: ${ without }", ErrBadSubst)
		}
		return s[i+1 : i+end], i + end + 1, nil
	}
	j := i
	for j < len(s) && (isAlnum(s[j]) || s[j] == '_') {
		j++
	}
	return s[i:j], j, nil
}

func isAlnum(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

// scanBracket reads a balanced [script] at s[i:] and returns the inner
// script and the index after the closing bracket.
func scanBracket(s string, i int) (string, int, error) {
	depth := 0
	for j := i; j < len(s); j++ {
		switch s[j] {
		case '\\':
			j++
		case '[':
			depth++
		case ']':
			depth--
			if depth == 0 {
				return s[i+1 : j], j + 1, nil
			}
		}
	}
	return "", 0, fmt.Errorf("%w: bracket opened at %d", ErrUnbalanced, i)
}

// arity fails unless len(args)-1 (the argument count) is within [min,max];
// max < 0 means unbounded.
func arity(args []string, min, max int) error {
	n := len(args) - 1
	if n < min || (max >= 0 && n > max) {
		return fmt.Errorf("tclish: wrong # args for %q", args[0])
	}
	return nil
}

func registerCore(in *Interp) {
	in.Register("set", func(in *Interp, args []string) (string, error) {
		if err := arity(args, 1, 2); err != nil {
			return "", err
		}
		if len(args) == 2 {
			v, ok := in.Var(args[1])
			if !ok {
				return "", fmt.Errorf("tclish: no such variable %q", args[1])
			}
			return v, nil
		}
		in.SetVar(args[1], args[2])
		return args[2], nil
	})

	in.Register("unset", func(in *Interp, args []string) (string, error) {
		if err := arity(args, 1, 1); err != nil {
			return "", err
		}
		delete(in.frame(), args[1])
		return "", nil
	})

	in.Register("puts", func(in *Interp, args []string) (string, error) {
		if err := arity(args, 1, 2); err != nil {
			return "", err
		}
		text := args[len(args)-1]
		if len(args) == 3 && args[1] != "-nonewline" {
			return "", fmt.Errorf("tclish: puts: unknown option %q", args[1])
		}
		if len(args) == 3 {
			fmt.Fprint(in.out, text)
		} else {
			fmt.Fprintln(in.out, text)
		}
		return "", nil
	})

	in.Register("expr", func(in *Interp, args []string) (string, error) {
		if err := arity(args, 1, -1); err != nil {
			return "", err
		}
		return in.exprString(strings.Join(args[1:], " "))
	})

	in.Register("incr", func(in *Interp, args []string) (string, error) {
		if err := arity(args, 1, 2); err != nil {
			return "", err
		}
		delta := int64(1)
		if len(args) == 3 {
			d, err := strconv.ParseInt(args[2], 10, 64)
			if err != nil {
				return "", fmt.Errorf("tclish: incr: %w", err)
			}
			delta = d
		}
		cur := int64(0)
		if v, ok := in.Var(args[1]); ok && v != "" {
			c, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return "", fmt.Errorf("tclish: incr %q: %w", args[1], err)
			}
			cur = c
		}
		out := strconv.FormatInt(cur+delta, 10)
		in.SetVar(args[1], out)
		return out, nil
	})

	in.Register("if", cmdIf)
	in.Register("while", cmdWhile)
	in.Register("for", cmdFor)
	in.Register("foreach", cmdForeach)
	in.Register("proc", cmdProc)

	in.Register("break", func(in *Interp, args []string) (string, error) {
		return "", errBreak
	})
	in.Register("continue", func(in *Interp, args []string) (string, error) {
		return "", errContinue
	})
	in.Register("return", func(in *Interp, args []string) (string, error) {
		if err := arity(args, 0, 1); err != nil {
			return "", err
		}
		v := ""
		if len(args) == 2 {
			v = args[1]
		}
		return v, returnSignal{value: v}
	})

	in.Register("list", func(in *Interp, args []string) (string, error) {
		return JoinList(args[1:]), nil
	})
	in.Register("lindex", func(in *Interp, args []string) (string, error) {
		if err := arity(args, 2, 2); err != nil {
			return "", err
		}
		elems, err := SplitList(args[1])
		if err != nil {
			return "", err
		}
		idx, err := strconv.Atoi(args[2])
		if err != nil || idx < 0 || idx >= len(elems) {
			return "", nil // Tcl returns empty for out-of-range
		}
		return elems[idx], nil
	})
	in.Register("llength", func(in *Interp, args []string) (string, error) {
		if err := arity(args, 1, 1); err != nil {
			return "", err
		}
		elems, err := SplitList(args[1])
		if err != nil {
			return "", err
		}
		return strconv.Itoa(len(elems)), nil
	})
	in.Register("lappend", func(in *Interp, args []string) (string, error) {
		if err := arity(args, 1, -1); err != nil {
			return "", err
		}
		cur, _ := in.Var(args[1])
		for _, e := range args[2:] {
			q := QuoteListElement(e)
			if cur == "" {
				cur = q
			} else {
				cur += " " + q
			}
		}
		in.SetVar(args[1], cur)
		return cur, nil
	})
	in.Register("eval", func(in *Interp, args []string) (string, error) {
		if err := arity(args, 1, -1); err != nil {
			return "", err
		}
		return in.Eval(strings.Join(args[1:], " "))
	})
	in.Register("string", cmdString)
}

func cmdIf(in *Interp, args []string) (string, error) {
	// if cond body ?elseif cond body?* ?else body?
	i := 1
	for i < len(args) {
		if args[i] == "else" {
			if i+1 != len(args)-1 {
				return "", fmt.Errorf("tclish: malformed else clause")
			}
			return in.Eval(args[i+1])
		}
		if args[i] == "elseif" {
			i++
			continue
		}
		if i+1 >= len(args) {
			return "", fmt.Errorf("tclish: if: missing body")
		}
		ok, err := in.exprBool(args[i])
		if err != nil {
			return "", err
		}
		if ok {
			return in.Eval(args[i+1])
		}
		i += 2
	}
	return "", nil
}

func cmdWhile(in *Interp, args []string) (string, error) {
	if err := arity(args, 2, 2); err != nil {
		return "", err
	}
	result := ""
	for iter := 0; ; iter++ {
		if iter > in.LoopLimit {
			return "", fmt.Errorf("tclish: while: iteration limit reached")
		}
		ok, err := in.exprBool(args[1])
		if err != nil {
			return "", err
		}
		if !ok {
			return result, nil
		}
		result, err = in.Eval(args[2])
		if err != nil {
			if errors.Is(err, errBreak) {
				return "", nil
			}
			if errors.Is(err, errContinue) {
				continue
			}
			return result, err
		}
	}
}

func cmdFor(in *Interp, args []string) (string, error) {
	if err := arity(args, 4, 4); err != nil {
		return "", err
	}
	if _, err := in.Eval(args[1]); err != nil {
		return "", err
	}
	for iter := 0; ; iter++ {
		if iter > in.LoopLimit {
			return "", fmt.Errorf("tclish: for: iteration limit reached")
		}
		ok, err := in.exprBool(args[2])
		if err != nil {
			return "", err
		}
		if !ok {
			return "", nil
		}
		if _, err := in.Eval(args[4]); err != nil {
			if errors.Is(err, errBreak) {
				return "", nil
			}
			if !errors.Is(err, errContinue) {
				return "", err
			}
		}
		if _, err := in.Eval(args[3]); err != nil {
			return "", err
		}
	}
}

func cmdForeach(in *Interp, args []string) (string, error) {
	if err := arity(args, 3, 3); err != nil {
		return "", err
	}
	elems, err := SplitList(args[2])
	if err != nil {
		return "", err
	}
	for _, e := range elems {
		in.SetVar(args[1], e)
		if _, err := in.Eval(args[3]); err != nil {
			if errors.Is(err, errBreak) {
				return "", nil
			}
			if errors.Is(err, errContinue) {
				continue
			}
			return "", err
		}
	}
	return "", nil
}

func cmdProc(in *Interp, args []string) (string, error) {
	if err := arity(args, 3, 3); err != nil {
		return "", err
	}
	name := args[1]
	params, err := SplitList(args[2])
	if err != nil {
		return "", err
	}
	body := args[3]
	in.Register(name, func(in *Interp, callArgs []string) (string, error) {
		if len(callArgs)-1 != len(params) {
			return "", fmt.Errorf("tclish: proc %q wants %d args, got %d", name, len(params), len(callArgs)-1)
		}
		frame := make(map[string]string, len(params))
		for i, p := range params {
			frame[p] = callArgs[i+1]
		}
		in.frames = append(in.frames, frame)
		defer func() { in.frames = in.frames[:len(in.frames)-1] }()
		result, err := in.Eval(body)
		var ret returnSignal
		if errors.As(err, &ret) {
			return ret.value, nil
		}
		return result, err
	})
	return "", nil
}

func cmdString(in *Interp, args []string) (string, error) {
	if err := arity(args, 2, -1); err != nil {
		return "", err
	}
	switch args[1] {
	case "length":
		return strconv.Itoa(len(args[2])), nil
	case "toupper":
		return strings.ToUpper(args[2]), nil
	case "tolower":
		return strings.ToLower(args[2]), nil
	case "equal":
		if err := arity(args, 3, 3); err != nil {
			return "", err
		}
		if args[2] == args[3] {
			return "1", nil
		}
		return "0", nil
	case "trim":
		return strings.TrimSpace(args[2]), nil
	default:
		return "", fmt.Errorf("tclish: string: unknown subcommand %q", args[1])
	}
}
