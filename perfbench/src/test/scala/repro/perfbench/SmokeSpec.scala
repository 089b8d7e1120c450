package repro.perfbench

import java.io.File

import scala.io.Source

import org.scalatest.funsuite.AnyFunSuite

/** Tiny-scale runs of every workload, untraced and traced: each completes,
  * passes its own checks and reports exactly the metrics BENCHMARK.json
  * names.
  */
class SmokeSpec extends AnyFunSuite {

  private val spec = {
    val s = Source.fromFile(new File("../BENCHMARK.json"), "UTF-8")
    try s.mkString finally s.close()
  }

  private def names(section: String): Set[String] = {
    val body = spec.drop(spec.indexOf(s""""$section""""))
    val list = body.take(body.indexOf("]"))
    """"name":\s*"([^"]+)"""".r.findAllMatchIn(list).map(_.group(1)).toSet
  }

  private val out = new File("target/smoke")

  test("BENCHMARK.json names both workloads") {
    assert(names("workloads") == Workloads.All.map(_.name).toSet)
  }

  test("command-line parsing") {
    val c = Config.parse(List("--workload", "nyc_table4", "--seed", "4", "--seconds", "10", "--trace", "1"))
    assert(c.map(c => (c.workload, c.seed, c.seconds, c.trace, c.setups)) ==
      Right((Workloads.NycTable4, 4L, 10.0, true, 1)))
    assert(Config.parse(List("--workload", "nope")).isLeft)
    assert(Config.parse(List("--workload", "nyc_table4", "--bogus", "1")).isLeft)
    assert(Config.parse(List("--seed", "1")).isLeft)
  }

  for (w <- Workloads.All; trace <- Seq(false, true)) {
    test(s"${w.name} trace=$trace at tiny scale") {
      val r = Runs.run(Config(w, seed = 1, seconds = 0.1, trace = trace, scale = 0.02,
                              setups = if (trace) 1 else 2, outDir = out))
      assert(r.problems.isEmpty, r.problems)
      assert(r.failed == 0)
      assert(r.attempted >= 6)
      val want = names(if (trace) "per_layer" else "end_to_end")
      assert(r.metrics.map(_.name).toSet == want)
      assert(r.metrics.forall(m => !m.value.isNaN && !m.value.isInfinite))
      assert(r.line.startsWith("""{"correct":true,"""))
    }
  }
}
