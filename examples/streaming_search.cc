/// Streaming search: answering a large query set in chunks (Fig. 11's
/// strategy — the paper runs 65536 queries as 64 batches of 1024) through
/// the facade's streaming pipeline:
///   1. Engine::SearchStream splits the request into chunks, runs each
///      through the backend, and delivers per-chunk results in input order
///      with per-chunk SearchProfile deltas;
///   2. Engine::SearchAsync returns a future at once, so the caller
///      overlaps its own work with search. The stream runs as a task on
///      the process-wide thread pool, and so does the chunk callback.
///      Under EngineConfig::Serving, SearchAsync admits the chunks from
///      the calling thread instead, and each delivery (callback included)
///      runs as its own short pool task.

#include <cstdio>

#include "api/genie.h"
#include "data/documents.h"

int main() {
  // A synthetic document corpus; queries are documents themselves, ranked
  // by inner product (shared distinct words).
  genie::data::DocumentDatasetOptions data_options;
  data_options.num_documents = 20000;
  data_options.vocabulary = 5000;
  data_options.seed = 11;
  auto corpus = genie::data::MakeDocuments(data_options);

  auto engine = genie::Engine::Create(
      genie::EngineConfig().Documents(&corpus).K(3));
  if (!engine.ok()) {
    std::fprintf(stderr, "create failed: %s\n",
                 engine.status().ToString().c_str());
    return 1;
  }

  // A large query set: every 10th document queries the corpus.
  std::vector<std::vector<uint32_t>> queries;
  for (size_t d = 0; d < corpus.size(); d += 10) queries.push_back(corpus[d]);

  // Stream it in 256-query chunks. The callback sees each chunk as soon as
  // it is answered — first results arrive long before the set completes.
  genie::SearchStreamOptions stream;
  stream.chunk_size = 256;
  auto future = (*engine)->SearchAsync(
      genie::SearchRequest::Documents(queries), stream,
      [](const genie::SearchChunk& chunk) {
        std::printf(
            "chunk %2zu: queries [%5zu, %5zu)  match %.3f ms  select %.3f ms"
            "  parts %u\n",
            chunk.index, chunk.first_query,
            chunk.first_query + chunk.result.queries.size(),
            chunk.result.profile.match_s * 1e3,
            chunk.result.profile.select_s * 1e3, chunk.result.profile.parts);
        return genie::Status::OK();
      });

  // ... the caller is free to do other work here ...

  auto result = future.get();
  if (!result.ok()) {
    std::fprintf(stderr, "stream failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("\n%zu queries answered; aggregate of this stream: "
              "%.3f ms device time%s\n",
              result->queries.size(), result->profile.total_query_s() * 1e3,
              result->profile.used_multi_load ? " (multiple loading)" : "");
  std::printf("cumulative since engine creation: %.3f ms\n",
              result->cumulative.total_query_s() * 1e3);

  // Spot-check: each query's best hit is the document it came from.
  const genie::Hit& top = result->queries[7].hits[0];
  std::printf("query 7 best hit: document %u (inner product %u)\n", top.id,
              top.match_count);
  return 0;
}
