// Rewrites the executor's golden corpus (tests/golden_corpus.h): runs every
// case serially at chunk size 1, the row-at-a-time reference, and prints
// its records. Usage:
//
//   ./build/tests/golden_corpus_gen > tests/data/golden_corpus.txt

#include <cstdio>
#include <string>

#include "golden_corpus.h"

int main() {
  using namespace quarry::etl;
  std::printf(
      "# Golden corpus of the ETL executor (tests/golden_corpus.h).\n"
      "# Regenerate: ./build/tests/golden_corpus_gen > "
      "tests/data/golden_corpus.txt\n"
      "# run   <case> fp=<target fingerprint> rows_processed=<n> "
      "loaded=<table>:<rows>,...\n"
      "# node  <case> <node> <rows_in> <rows_out>\n"
      "# error <case> fp=<target fingerprint after rollback> "
      "failed=<node> <status>\n");
  ExecOptions reference;
  reference.max_workers = 1;
  reference.chunk_size = 1;
  for (const testutil::CorpusCase& c : testutil::AllCases()) {
    for (const std::string& line :
         testutil::RecordLines(c.name, testutil::RunCase(c, reference))) {
      std::printf("%s\n", line.c_str());
    }
  }
  return 0;
}
