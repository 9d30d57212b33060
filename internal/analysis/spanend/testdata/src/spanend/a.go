// Fixture for the spanend analyzer. T mimics the trace.Tracer /
// trace.NodeTracer shape: methods named Span/Begin returning a bare func()
// closer. The analyzer matches that shape structurally, so the fixture
// needs no dependency on the real trace package.
package spanend

type T struct{}

func (T) Span(name string) func()  { return func() {} }
func (T) Begin(name string) func() { return func() {} }

// --- accepted idioms ---

func deferredClose(t T) {
	defer t.Span("ok")()
}

func immediateClose(t T) {
	t.Begin("ok")()
}

func closeBeforeCheck(t T, err error) error {
	end := t.Begin("ok")
	werr := work()
	end()
	if werr != nil {
		return werr
	}
	return err
}

func closeOnEveryBranch(t T, err error) error {
	end := t.Begin("ok")
	if err != nil {
		end()
		return err
	}
	end()
	return nil
}

func deferVariable(t T, err error) error {
	end := t.Begin("ok")
	defer end()
	if err != nil {
		return err
	}
	return nil
}

func deferClosure(t T, err error) error {
	end := t.Begin("ok")
	defer func() { end() }()
	if err != nil {
		return err
	}
	return nil
}

func returned(t T) func() {
	return t.Begin("ok") // ownership transfers to the caller
}

func stored(t T, sink *func()) {
	*sink = t.Begin("ok") // ownership transfers to the destination
}

func passedOn(t T) {
	consume(t.Begin("ok")) // ownership transfers to consume
}

func consume(f func()) { f() }

// --- violations ---

func discarded(t T) {
	t.Span("x") // want `closer returned by Span is discarded`
}

func blanked(t T) {
	_ = t.Begin("x") // want `closer returned by Begin is assigned to _`
}

func neverCalled(t T) {
	end := t.Begin("x") // want `closer end returned by Begin is never called`
	_ = end
}

func earlyReturn(t T, err error) error {
	end := t.Begin("x") // want `closer end returned by Begin is not closed on the return path at line \d+`
	if err != nil {
		return err
	}
	end()
	return nil
}

func closedOnOtherBranch(t T, ok bool, err error) error {
	end := t.Begin("x") // want `closer end returned by Begin is not closed on the return path at line \d+`
	if ok {
		end()
		return nil
	}
	return err
}

func multiAssign(t T, err error) error {
	n, end := 1, t.Begin("x") // want `closer end returned by Begin is not closed on the return path at line \d+`
	if n > 0 && err != nil {
		return err
	}
	end()
	return nil
}

func deferOpener(t T) {
	defer t.Begin("x") // want `defers the opener, not the closer`
}

// --- shape filters: similarly named methods that return no closer ---

type U struct{}

func (U) Span(name string) int        { return 0 }
func (U) Begin(name string) func(int) { return func(int) {} }

func notACloser(u U) {
	_ = u.Span("x")  // result is not func(): ignored
	_ = u.Begin("x") // closer takes an argument: ignored
}

// --- suppression ---

func suppressed(t T) {
	t.Span("x") //lint:allow spanend fixture demonstrates suppression
}

func work() error { return nil }
